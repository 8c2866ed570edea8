package dist

import (
	"reflect"
	"testing"

	"repro/internal/emu"
)

// TestNetStateSurvivesTheWire is the coverage check on the one barrier state:
// every field of emu.NetState is filled, by reflection, with distinct non-zero
// values and sent the whole way a resize takes it — export-encode → decode →
// DistMerge.Resize (assemble under the old ownership, mask under the new) →
// install-encode → decode → DistLocal.Reseat. Every slot must arrive at exactly
// one new owner and be at rest on the other, so a field added to NetState that
// newNetState, clone, a codec or gather forgets fails here.
func TestNetStateSurvivesTheWire(t *testing.T) {
	cfg := testSpec(t).Cfg // 4 nodes on 2 engines, 3 links, 2 flows
	newLocal := func(engines ...int) *emu.DistLocal {
		l, err := emu.NewDistLocal(cfg, engines, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		return l
	}
	export := func(l *emu.DistLocal, pending bool) *emu.ElasticExport {
		ex, err := l.Export(pending)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	merge, err := emu.NewDistMerge(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One worker holds both engines and nothing has run: its export is the
	// state at rest. Fill one copy of it.
	members := []*emu.DistLocal{newLocal(0, 1), newLocal(1)}
	rest, ex := reflect.ValueOf(export(members[0], false).NetState), export(members[0], true)
	want := reflect.ValueOf(&ex.NetState).Elem()
	next := int64(1)
	for k := 0; k < want.NumField(); k++ {
		f, name := want.Field(k), want.Type().Field(k).Name
		if f.Kind() != reflect.Slice || f.Len() == 0 {
			t.Fatalf("NetState.%s: not a slice, or an export leaves it empty", name)
		}
		for i := 0; i < f.Len(); i++ {
			switch e := f.Index(i); e.Kind() {
			case reflect.Float64:
				e.SetFloat(float64(next))
			case reflect.Int64:
				e.SetInt(next)
			default:
				t.Fatalf("NetState.%s holds %s, which this test does not fill", name, e.Kind())
			}
			next++
		}
	}

	// The resize swaps the two engines' nodes and splits the engines over two
	// members, so every slot changes owner.
	shipped, err := DecodeElasticExport(EncodeElasticExport(ex))
	if err != nil {
		t.Fatal(err)
	}
	swap := func(emu.MembershipChange) ([]int, error) { return []int{1, 0, 1, 0}, nil }
	installs, _, err := merge.Resize(0, []*emu.ElasticExport{shipped}, [][]int{{0}, {1}}, swap)
	if err != nil {
		t.Fatal(err)
	}
	after := make([]reflect.Value, len(members))
	for g, l := range members {
		in, err := DecodeElasticInstall(EncodeElasticInstall(installs[g]))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Reseat(in); err != nil {
			t.Fatal(err)
		}
		after[g] = reflect.ValueOf(export(l, false).NetState)
	}
	for k := 0; k < want.NumField(); k++ {
		for i := 0; i < want.Field(k).Len(); i++ {
			at := func(v reflect.Value) any { return v.Field(k).Index(i).Interface() }
			w, r, a0, a1 := at(want), at(rest), at(after[0]), at(after[1])
			if !(a0 == w && a1 == r) && !(a0 == r && a1 == w) {
				t.Errorf("NetState.%s[%d]: sent %v, the new members hold %v and %v (at rest: %v)",
					want.Type().Field(k).Name, i, w, a0, a1, r)
			}
		}
	}
}
