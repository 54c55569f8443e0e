package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzParseJournal: parseJournal never panics on arbitrary bytes; it
// reports a torn tail only for the final line (the journal up to its last
// newline parses cleanly to the same records); and re-encoding the
// parsed records — what torn-tail compaction writes — parses back to the
// same records.
func FuzzParseJournal(f *testing.F) {
	spec := testSpec()
	var good bytes.Buffer
	for _, rec := range []Record{
		{Seq: 1, Type: recSubmitted, Job: "j000001-abcdef01", Spec: &spec},
		{Seq: 2, Type: recReused, Job: "j000001-abcdef01", Reuse: &reusePlan{Source: "ab", Remainder: []float64{1e-3}}},
		{Seq: 3, Type: "done", Job: "j000001-abcdef01", Error: "x"},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		good.Write(line)
		good.WriteByte('\n')
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-9])                      // torn final append
	f.Add(append([]byte("{\"seq\":1}\n"), good.Bytes()...)) // record missing type and job
	f.Add([]byte("not json\n{}"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn, err := parseJournal("journal.jsonl", data)
		if err != nil {
			var ce *CorruptJournalError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T %v, want *CorruptJournalError", err, err)
			}
			return
		}
		if torn {
			head := data[:bytes.LastIndexByte(data, '\n')+1]
			hrecs, htorn, herr := parseJournal("journal.jsonl", head)
			if herr != nil || htorn || !reflect.DeepEqual(hrecs, recs) {
				t.Fatalf("torn tail is not the final line alone: head parses to %d records (torn %v, err %v), full input to %d",
					len(hrecs), htorn, herr, len(recs))
			}
		}
		var buf bytes.Buffer
		for _, rec := range recs {
			line, merr := json.Marshal(rec)
			if merr != nil {
				t.Fatalf("parsed record does not re-encode: %v", merr)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		again, atorn, aerr := parseJournal("journal.jsonl", buf.Bytes())
		if aerr != nil || atorn {
			t.Fatalf("re-encoded records fail to parse: torn %v, err %v", atorn, aerr)
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("re-encoded records parse to %+v, want %+v", again, recs)
		}
	})
}
