package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"exactdep/internal/corpus"
)

// BenchmarkWireEncode renders the reply to one 128-nest LargeCorpus program
// served from the verdict store, what a serve-mixed repeat renders: typed
// converts the unit with FromUnitResult and reflects over it with
// json.Encoder, append renders it with AppendAnalyzeResponse into a fresh
// buffer, as depserve does.
func BenchmarkWireEncode(b *testing.B) {
	ur, _ := servedUnit(b)
	urs := []corpus.UnitResult{ur}
	resp := AnalyzeResponse{SchemaVersion: SchemaVersion, BudgetClass: "exhaustive"}
	b.Run("typed", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			typed := resp
			typed.Units = []UnitVerdicts{FromUnitResult(&ur)}
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(&typed); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("append", func(b *testing.B) {
		var body []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body = AppendAnalyzeResponse(nil, &resp, urs)
		}
		b.SetBytes(int64(len(body)))
	})
}

// BenchmarkWireDecode decodes the analyze request that asks for that unit,
// as depserve's handler does.
func BenchmarkWireDecode(b *testing.B) {
	_, body := servedUnit(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var req AnalyzeRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			b.Fatal(err)
		}
	}
}
