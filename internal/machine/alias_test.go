package machine

import (
	"fmt"
	"reflect"
	"testing"
)

// heldFrames walks everything reachable from the machine except the frame
// pool itself and returns the path to every slice that points into the
// pool's arena. Frames are named by id everywhere — page tables, the file
// cache, the compression cache's ring — and their bytes reach PageOut,
// PageIn, a codec or a tier only on loan for one call, so between calls there
// must be none: a buffer somebody kept is a page somebody else now owns.
// Function values are opaque to the walk; nothing in the machine stores one
// that captures a frame.
func heldFrames(m *Machine) []string {
	arena := reflect.ValueOf(m.Pool.Bytes(0)).Pointer()
	end := arena + uintptr(m.Pool.Total()*m.Pool.PageSize())
	seen := map[uintptr]bool{reflect.ValueOf(m.Pool).Pointer(): true}
	var held []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem(), path)
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"[]")
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Slice:
			if v.Len() > 0 || v.Cap() > 0 {
				if p := v.Pointer(); p >= arena && p < end {
					held = append(held, fmt.Sprintf("%s (frame %d)", path, (p-arena)/uintptr(m.Pool.PageSize())))
				}
			}
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Map, reflect.Array, reflect.Slice:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), path+"[]")
				}
			}
		}
	}
	walk(reflect.ValueOf(m), "Machine")
	return held
}

// checkNoHeldFrames fails the test when the machine holds on to a frame's
// bytes.
func checkNoHeldFrames(t *testing.T, m *Machine) {
	t.Helper()
	for _, path := range heldFrames(m) {
		t.Errorf("%s still points into the frame pool after the call it was lent for", path)
	}
}
