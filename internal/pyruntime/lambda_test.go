package pyruntime

import (
	"errors"
	"testing"

	"repro/internal/appspec"
	"repro/internal/vfs"
)

// Invoke hands the handler the event ({} for a nil one) and the Lambda
// context, and tells the ways a call can fail apart.
func TestInvoke(t *testing.T) {
	app := func(src string) *appspec.App {
		fs := vfs.New()
		fs.Write("handler.py", src)
		return &appspec.App{Name: "fn", Image: fs, Entry: "handler", Handler: "handler"}
	}
	echo := app("def handler(event, context):\n    return [event, context['function_name'], context['request_id']]\n")
	res, err := New(echo.Image).Invoke(echo, nil, "r-1")
	if err != nil || Repr(res) != "[{}, 'fn', 'r-1']" {
		t.Errorf("nil event: %v, %v; want [{}, 'fn', 'r-1']", Repr(res), err)
	}
	if _, err := New(echo.Image).Invoke(echo, map[string]any{"x": struct{}{}}, "r"); err == nil || errors.As(err, new(*PyErr)) {
		t.Errorf("unconvertible event: err = %v, want a conversion error", err)
	}

	noHandler := app("x = 1\n")
	if _, err := New(noHandler.Image).Invoke(noHandler, nil, "r"); err != ErrNoHandler {
		t.Errorf("no handler: err = %v, want ErrNoHandler", err)
	}
	for name, a := range map[string]*appspec.App{
		"import":  app("raise ValueError('at import')\n"),
		"handler": app("def handler(event, context):\n    raise ValueError('in handler')\n"),
	} {
		_, err := New(a.Image).Invoke(a, nil, "r")
		if perr, ok := err.(*PyErr); !ok || perr.ClassName() != "ValueError" {
			t.Errorf("raise in %s: err = %v, want its ValueError", name, err)
		}
	}
}
