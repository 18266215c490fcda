package scenario

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteSweepCSV renders sweep rows in the CLI's CSV dialect. Both
// `cavenet scenario sweep` and the experiment service's artifact endpoint
// call this one renderer, so their outputs are byte-identical by
// construction. Every write is error-checked: a closed pipe or full disk
// surfaces as an error instead of silently truncating the table.
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	if _, err := fmt.Fprintln(w, "# scenario x protocol x seed sweep; metrics are mean over trials with a 95% CI half-width"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "scenario,protocol,trials,pdr,pdrCI95,delay_s,delayCI95_s,ctrlPackets,ctrlPacketsCI95,delivered,violations,downtimeSec,faultPDR"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.4f,%.4f,%.5f,%.5f,%.1f,%.1f,%d,%d,%.1f,%.4f\n",
			r.Scenario, r.Protocol, r.Trials,
			r.PDR.Mean, r.PDR.CI95,
			r.DelaySec.Mean, r.DelaySec.CI95,
			r.ControlPackets.Mean, r.ControlPackets.CI95,
			r.Delivered, r.Violations,
			r.DowntimeSec.Mean, r.FaultPDR.Mean); err != nil {
			return err
		}
	}
	// Failing cells go below the table as comments, so the columns, and a
	// clean sweep's bytes, stay as they are.
	for _, r := range rows {
		for _, c := range r.FailingCells {
			if _, err := fmt.Fprintf(w, "# %s/%s: trial %d seed %d (%d violations)\n",
				r.Scenario, r.Protocol, c.Trial, c.Seed, c.Violations); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSweepJSON renders sweep rows as the CLI's indented JSON document.
func WriteSweepJSON(w io.Writer, rows []SweepRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
