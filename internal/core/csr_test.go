package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestAppendMergedLeavesInputsAlone is the regression test for the k-way
// merge this kernel replaced, which compacted and advanced its callers'
// sequences in place: a caller that keeps what it passes (a layer, the
// sealed base) must find it unchanged, and ties go to the first operand.
func TestAppendMergedLeavesInputsAlone(t *testing.T) {
	at := func(alpha uint64) edgeRow {
		return edgeRow{from: refOf(SubID{Alpha: alpha}), to: refOf(SubID{Thread: 1, Alpha: alpha})}
	}
	ar := &arenas{sync: []edgeRow{at(0), at(2), at(4), at(1), at(2), at(5)}}
	a, b := []edgeRef{0, 1, 2}, []edgeRef{3, 4, 5}
	got := ar.appendMerged(nil, a, b)
	if want := []edgeRef{0, 3, 1, 4, 2, 5}; !slices.Equal(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	if !slices.Equal(a, []edgeRef{0, 1, 2}) || !slices.Equal(b, []edgeRef{3, 4, 5}) {
		t.Fatalf("merge rewrote its inputs: %v %v", a, b)
	}
}

// TestEdgeRowIsPointerFree pins the row the edge arenas store: at most
// 32 bytes, and no pointer anywhere in it — no string, slice, map or
// pointer field, however nested — so the runtime allocates the arenas
// noscan and the collector never walks a stored edge.
func TestEdgeRowIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(edgeRow{}); size > 32 {
		t.Errorf("edgeRow is %d bytes, want at most 32", size)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[i]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %v: a row must hold no pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(edgeRow{}), "edgeRow")
}
