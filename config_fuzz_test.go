package dualvdd_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dualvdd"
)

// FuzzConfigJSON holds the Config codec to a round trip: whenever a decoded
// Config is valid, encoding it and decoding the bytes again gives an equal
// Config, and encoding that gives the same bytes.
func FuzzConfigJSON(f *testing.F) {
	legacy, err := json.Marshal(dualvdd.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte(`{"rails":[5,3.9],"slack_factor":1.2,"sim_words":8,"fclk_hz":1e6}`))
	f.Add([]byte(`{"vhigh":3,"vlow":4,"rails":[5,4.3,3.6],"slack_factor":1.1,"sim_words":8,"fclk_hz":1e6}`))
	// A Config written while the retired sim_workers field existed.
	f.Add([]byte(`{"vhigh":5,"vlow":4.3,"slack_factor":1.2,"max_area_increase":0.1,"max_iter":10,"sim_words":256,"sim_workers":3,"seed":1,"fclk_hz":20000000}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c dualvdd.Config
		if err := json.Unmarshal(data, &c); err != nil || c.Validate() != nil {
			return
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("valid config %+v does not encode: %v", c, err)
		}
		var back dualvdd.Config
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("%s decodes to %+v, want %+v", enc, back, c)
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not stable: %s then %s (err %v)", enc, again, err)
		}
	})
}
