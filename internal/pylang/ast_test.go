package pylang

import (
	"slices"
	"testing"
)

func TestBoundNames(t *testing.T) {
	cases := []struct {
		stmt Stmt
		want []string
	}{
		{&DefStmt{Name: "f"}, []string{"f"}},
		{&ClassStmt{Name: "C"}, []string{"C"}},
		// a = b.x = c = 1: attribute targets bind no module attribute.
		{&AssignStmt{Targets: []Expr{name("a"), &AttrExpr{Value: name("b"), Attr: "x"}, name("c")}, Value: &IntLit{Value: 1}}, []string{"a", "c"}},
		{&AssignStmt{Targets: []Expr{&TupleExpr{Elems: []Expr{name("a"), name("b")}}}, Value: name("t")}, nil},
		{&ImportStmt{Names: []Alias{{Name: "numpy"}, {Name: "torch.nn"}, {Name: "a.b", AsName: "ab"}}}, []string{"numpy", "torch", "ab"}},
		{&FromImportStmt{Module: "m", Names: []Alias{{Name: "x"}, {Name: "y", AsName: "z"}}}, []string{"x", "z"}},
		{&FromImportStmt{Module: "m", Star: true}, nil},
		{&ExprStmt{Value: name("a")}, nil},
	}
	for i, c := range cases {
		if got := BoundNames(c.stmt); !slices.Equal(got, c.want) {
			t.Errorf("case %d: BoundNames = %q, want %q", i, got, c.want)
		}
		if got := NumBoundNames(c.stmt); got != len(c.want) {
			t.Errorf("case %d: NumBoundNames = %d, want %d", i, got, len(c.want))
		}
	}
}
