package pyruntime

import (
	"errors"

	"repro/internal/appspec"
)

// The Lambda calling convention, shared by the debloating oracle and the
// platform simulator: import the app's entry module, look its handler up,
// and call it with the event and a context (§5: "each test must contain an
// event and a context").

// ErrNoHandler reports an entry module that does not define the app's
// handler.
var ErrNoHandler = errors.New("pyruntime: entry module defines no handler")

// LoadHandler imports app's entry module and returns its handler: a cold
// start's Function Initialization. An exception the import raises comes
// back as its *PyErr, a module without the handler as ErrNoHandler.
func (in *Interp) LoadHandler(app *appspec.App) (Value, error) {
	mod, perr := in.Import(app.Entry)
	if perr != nil {
		return nil, perr
	}
	handler, ok := mod.Dict.Get(app.Handler)
	if !ok {
		return nil, ErrNoHandler
	}
	return handler, nil
}

// CallHandler calls app's handler with event (a nil event is {}) and the
// Lambda context for requestID: Function Execution. An exception the
// handler raises comes back as its *PyErr; an event FromGo cannot convert
// comes back as FromGo's error, before any code runs.
func (in *Interp) CallHandler(handler Value, app *appspec.App, event map[string]any, requestID string) (Value, error) {
	ev, err := FromGo(event)
	if err != nil {
		return nil, err
	}
	ctx := NewDict()
	ctx.SetStr("function_name", StrV(app.Name))
	ctx.SetStr("function_version", StrV("$LATEST"))
	ctx.SetStr("request_id", StrV(requestID))
	ctx.SetStr("memory_limit_in_mb", IntV(3008))
	result, perr := in.CallFunction(handler, []Value{ev, ctx})
	if perr != nil {
		return nil, perr
	}
	return result, nil
}

// Invoke runs one whole invocation of app: LoadHandler, then CallHandler.
func (in *Interp) Invoke(app *appspec.App, event map[string]any, requestID string) (Value, error) {
	handler, err := in.LoadHandler(app)
	if err != nil {
		return nil, err
	}
	return in.CallHandler(handler, app, event, requestID)
}
