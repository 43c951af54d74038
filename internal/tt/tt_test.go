package tt

import "testing"

func TestVarTables(t *testing.T) {
	for i := 0; i < MaxVars; i++ {
		v := Var(i)
		for m := 0; m < 64; m++ {
			want := m>>uint(i)&1 == 1
			if v.Eval(m) != want {
				t.Fatalf("Var(%d) wrong at minterm %d", i, m)
			}
		}
	}
}

func TestVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Var(6)
}

func TestMask(t *testing.T) {
	if Mask(2) != 0xF {
		t.Fatalf("Mask(2) = %x", uint64(Mask(2)))
	}
	if Mask(6) != ^Table(0) {
		t.Fatal("Mask(6) wrong")
	}
}
