package sta

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestUndoRecLayout pins the journal record's layout: no field may hold a
// pointer (the garbage collector would then scan every journal), and the
// record stays within 24 bytes.
func TestUndoRecLayout(t *testing.T) {
	if size := unsafe.Sizeof(undoRec{}); size > 24 {
		t.Fatalf("undoRec is %d bytes, want at most 24", size)
	}
	if path := pointerPath(reflect.TypeOf(undoRec{}), "undoRec"); path != "" {
		t.Fatalf("undoRec holds a pointer at %s", path)
	}
}

// pointerPath returns the path of the first pointer-carrying part of a value
// of type tp, or "" when it has none.
func pointerPath(tp reflect.Type, path string) string {
	switch tp.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return path
	case reflect.Struct:
		for i := 0; i < tp.NumField(); i++ {
			f := tp.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		if tp.Len() > 0 {
			return pointerPath(tp.Elem(), path+"[0]")
		}
	}
	return ""
}

// TestCellStackReleasesCells pins the side stack of old cells: Rollback pops
// a recCell entry's cell and nils its slot, and Commit empties the stack, so
// no dropped record keeps a cell reachable.
func TestCellStackReleasesCells(t *testing.T) {
	c := invChain(3)
	inc, err := NewIncremental(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	small := c.Gates[0].Cell
	up := lib.Upsize(small)
	if up == nil {
		t.Fatal("no larger inverter")
	}
	inc.SetCell(0, up)
	mark := inc.Checkpoint()
	inc.SetCell(1, up)
	if len(inc.cells) != 2 {
		t.Fatalf("%d cells stacked after two resizes, want 2", len(inc.cells))
	}
	inc.Rollback(mark)
	if len(inc.cells) != 1 || inc.cells[:2][1] != nil || c.Gates[1].Cell != small {
		t.Fatalf("rollback left %d cells (popped slot %v), gate 1 bound to %s",
			len(inc.cells), inc.cells[:2][1], c.Gates[1].Cell.Name)
	}
	inc.Commit()
	if len(inc.cells) != 0 || inc.cells[:1][0] != nil {
		t.Fatalf("commit left %d cells (first slot %v)", len(inc.cells), inc.cells[:1][0])
	}
}
