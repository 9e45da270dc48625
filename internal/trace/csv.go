package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is FieldNames plus the path column appended last.
func csvHeader() []string {
	return append(append([]string{}, FieldNames...), "path")
}

// WriteCSV writes records to w in EOS-log CSV form: a header row of
// FieldNames plus "path", then one row per access.
func WriteCSV(w io.Writer, records []EOSRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	row := make([]string, NumFields)
	for i := range records {
		r := &records[i]
		fields := r.Fields()
		for j, v := range fields {
			// Integral fields round-trip exactly; rt/wt keep precision.
			if v == float64(int64(v)) {
				row[j] = strconv.FormatInt(int64(v), 10)
			} else {
				row[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		row[len(fields)] = r.Path
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
