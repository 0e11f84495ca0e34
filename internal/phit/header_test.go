package phit

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDefaultLayoutValid(t *testing.T) {
	if err := DefaultLayout.Validate(); err != nil {
		t.Fatalf("DefaultLayout invalid: %v", err)
	}
	if got, want := DefaultLayout.MaxHops(), 7; got != want {
		t.Errorf("MaxHops = %d, want %d", got, want)
	}
	if got, want := DefaultLayout.MaxPort(), 7; got != want {
		t.Errorf("MaxPort = %d, want %d", got, want)
	}
	if got, want := DefaultLayout.MaxQID(), 31; got != want {
		t.Errorf("MaxQID = %d, want %d", got, want)
	}
	if got, want := DefaultLayout.MaxCredits(), 31; got != want {
		t.Errorf("MaxCredits = %d, want %d", got, want)
	}
}

func TestLayoutValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		l    HeaderLayout
	}{
		{"zero word", HeaderLayout{WordBits: 0, PortBits: 3, PathBits: 21}},
		{"wide word", HeaderLayout{WordBits: 65, PortBits: 3, PathBits: 21}},
		{"zero port", HeaderLayout{WordBits: 32, PortBits: 0, PathBits: 21}},
		{"path narrower than hop", HeaderLayout{WordBits: 32, PortBits: 4, PathBits: 3}},
		{"path not multiple", HeaderLayout{WordBits: 32, PortBits: 3, PathBits: 20}},
		{"overflow word", HeaderLayout{WordBits: 32, PortBits: 3, PathBits: 27, QIDBits: 5, CreditBits: 5}},
		{"negative field", HeaderLayout{WordBits: 32, PortBits: 3, PathBits: 21, QIDBits: -1}},
	}
	for _, c := range cases {
		if err := c.l.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid layout %+v", c.name, c.l)
		}
	}
}

func TestEncodeDecodeExample(t *testing.T) {
	// Fig. 1 of the paper: a 2-router path. Ports chosen arbitrarily.
	path := []int{2, 5, 1}
	w, err := DefaultLayout.Encode(path, 7, 3)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := DefaultLayout.QID(w); got != 7 {
		t.Errorf("QID = %d, want 7", got)
	}
	if got := DefaultLayout.Credits(w); got != 3 {
		t.Errorf("Credits = %d, want 3", got)
	}
	cur := w
	for i, want := range path {
		var port int
		port, cur = DefaultLayout.NextPort(cur)
		if port != want {
			t.Errorf("hop %d: port = %d, want %d", i, port, want)
		}
		// qid/credits must survive path shifting.
		if got := DefaultLayout.QID(cur); got != 7 {
			t.Errorf("hop %d: QID corrupted to %d", i, got)
		}
		if got := DefaultLayout.Credits(cur); got != 3 {
			t.Errorf("hop %d: Credits corrupted to %d", i, got)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	l := DefaultLayout
	if _, err := l.Encode(make([]int, l.MaxHops()+1), 0, 0); err == nil {
		t.Error("Encode accepted over-long path")
	}
	if _, err := l.Encode([]int{8}, 0, 0); err == nil {
		t.Error("Encode accepted out-of-range port")
	}
	if _, err := l.Encode([]int{-1}, 0, 0); err == nil {
		t.Error("Encode accepted negative port")
	}
	if _, err := l.Encode(nil, l.MaxQID()+1, 0); err == nil {
		t.Error("Encode accepted out-of-range qid")
	}
	if _, err := l.Encode(nil, 0, l.MaxCredits()+1); err == nil {
		t.Error("Encode accepted out-of-range credits")
	}
	if _, err := l.Encode(nil, -1, 0); err == nil {
		t.Error("Encode accepted negative qid")
	}
}

func TestWithCredits(t *testing.T) {
	w, err := DefaultLayout.Encode([]int{1, 2, 3}, 9, 0)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	w2, err := DefaultLayout.WithCredits(w, 17)
	if err != nil {
		t.Fatalf("WithCredits: %v", err)
	}
	if got := DefaultLayout.Credits(w2); got != 17 {
		t.Errorf("Credits = %d, want 17", got)
	}
	if got := DefaultLayout.QID(w2); got != 9 {
		t.Errorf("QID clobbered: %d, want 9", got)
	}
	if got := DefaultLayout.DecodePath(w2, 3); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("path clobbered: %v", got)
	}
	if _, err := DefaultLayout.WithCredits(w, DefaultLayout.MaxCredits()+1); err == nil {
		t.Error("WithCredits accepted overflow")
	}
}

// TestHeaderRoundTripQuick property-tests the codec: for random paths,
// qids and credit counts, encoding and walking the path hop by hop
// recovers exactly the encoded values, and the fixed fields are invariant
// under shifting.
func TestHeaderRoundTripQuick(t *testing.T) {
	l := DefaultLayout
	f := func(rawPath []uint8, rawQID, rawCredits uint16) bool {
		n := len(rawPath) % (l.MaxHops() + 1)
		path := make([]int, n)
		for i := range path {
			path[i] = int(rawPath[i]) % (l.MaxPort() + 1)
		}
		qid := int(rawQID) % (l.MaxQID() + 1)
		credits := int(rawCredits) % (l.MaxCredits() + 1)
		w, err := l.Encode(path, qid, credits)
		if err != nil {
			return false
		}
		cur := w
		for _, want := range path {
			var port int
			port, cur = l.NextPort(cur)
			if port != want || l.QID(cur) != qid || l.Credits(cur) != credits {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNarrowLayoutQuick exercises a non-default layout (16-bit words,
// 2-bit ports) to make sure nothing assumes the default field widths.
func TestNarrowLayoutQuick(t *testing.T) {
	l := HeaderLayout{WordBits: 16, PortBits: 2, PathBits: 8, QIDBits: 3, CreditBits: 4}
	if err := l.Validate(); err != nil {
		t.Fatalf("layout invalid: %v", err)
	}
	f := func(rawPath []uint8, rawQID, rawCredits uint16) bool {
		n := len(rawPath) % (l.MaxHops() + 1)
		path := make([]int, n)
		for i := range path {
			path[i] = int(rawPath[i]) % (l.MaxPort() + 1)
		}
		qid := int(rawQID) % (l.MaxQID() + 1)
		credits := int(rawCredits) % (l.MaxCredits() + 1)
		w, err := l.Encode(path, qid, credits)
		if err != nil {
			return false
		}
		got := l.DecodePath(w, n)
		for i := range path {
			if got[i] != path[i] {
				return false
			}
		}
		return l.QID(w) == qid && l.Credits(w) == credits
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFlitEmpty(t *testing.T) {
	var f Flit
	if !f.Empty() {
		t.Error("zero flit should be empty")
	}
	f[1].Valid = true
	if f.Empty() {
		t.Error("flit with a valid phit should not be empty")
	}
}

func TestPhitString(t *testing.T) {
	if got := IdlePhit.String(); got != "idle" {
		t.Errorf("IdlePhit.String() = %q", got)
	}
	p := Phit{Valid: true, EoP: true, Kind: Payload, Data: 0xab, Meta: Meta{Conn: 3, Seq: 9}}
	if got := p.String(); got != "payload(c3 #9 0xab|eop)" {
		t.Errorf("String() = %q", got)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

// TestLayoutForMesh pins the one layout rule: the narrowest layout whose
// path field holds a cols+rows-1 hop route, and the widest layout plus
// an error past every one.
func TestLayoutForMesh(t *testing.T) {
	cases := []struct {
		cols, rows int
		want       HeaderLayout
		wantErr    bool
	}{
		{4, 3, DefaultLayout, false},
		{4, 4, DefaultLayout, false},
		{5, 4, WideLayout, false},
		{5, 5, WideLayout, false},
		{8, 8, WideLayout, false},
		{9, 8, WideLayout, false},
		{9, 9, WideLayout, true},
		{32, 32, WideLayout, true},
	}
	for _, c := range cases {
		got, err := LayoutForMesh(c.cols, c.rows)
		if got != c.want || (err != nil) != c.wantErr {
			t.Errorf("LayoutForMesh(%d, %d) = %+v, %v; want %+v, error %v", c.cols, c.rows, got, err, c.want, c.wantErr)
		}
	}
	if got := WideLayout.WordBytes(); got != 8 {
		t.Errorf("WideLayout.WordBytes() = %d, want 8", got)
	}
}
