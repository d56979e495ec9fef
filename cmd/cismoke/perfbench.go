package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// cmdPerfbench checks one perfbench run: its output goes to stdin, and the
// last line must be the result record reporting correct outputs and no
// failed operations. A run that died before printing one fails too.
//
//	bash perfbench/run.sh --workload serve-http --seed 1 --seconds 3 | cismoke perfbench
func cmdPerfbench(r io.Reader) error {
	var last []byte
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var res struct {
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Correct   *bool `json:"correct"`
	}
	if err := json.Unmarshal(last, &res); err != nil || res.Correct == nil || res.Failed == nil {
		return fmt.Errorf("last line is not a perfbench result: %.200q", last)
	}
	if !*res.Correct {
		return fmt.Errorf("run reported correct=false")
	}
	if *res.Failed != 0 {
		return fmt.Errorf("run reported %d failed operations", *res.Failed)
	}
	fmt.Printf("perfbench OK: %d operations, correct, none failed\n", res.Attempted)
	return nil
}
