package spans

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSpanCodec feeds arbitrary bytes to the JSONL decoder. Anything
// it accepts must survive a canonical re-encode/re-decode round trip
// unchanged — the property cmd/drptrace and the CI trace-smoke golden
// rely on.
func FuzzSpanCodec(f *testing.F) {
	f.Add([]byte(`{"trace":"t1","span":"s1","name":"read","site":2,"peer":-1,"obj":5,"hop":-1,"attempt":-1,"start":1,"end":8,"ntc":0}` + "\n" +
		`{"trace":"t1","span":"s2","parent":"s1","name":"read.hop","site":-1,"peer":4,"obj":-1,"hop":0,"attempt":-1,"start":2,"end":7,"ntc":35,"err":"x","verdict":"crashed","attrs":{"k":"v"}}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"trace":"t9","span":"s9","name":"sync","site":0,"peer":0,"obj":0,"hop":-1,"attempt":-1,"start":0,"end":0,"ntc":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sps, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range sps {
			if verr := sps[i].validate(); verr != nil {
				t.Fatalf("decode returned invalid span: %v", verr)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, sps); err != nil {
			t.Fatalf("re-encode of decoded spans failed: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode of canonical encoding failed: %v", err)
		}
		if len(sps) == 0 {
			sps = nil
		}
		if !reflect.DeepEqual(sps, back) {
			t.Fatalf("round trip diverged:\n%v\n%v", sps, back)
		}
	})
}
