// Package appspec defines the serverless application description shared by
// the λ-trim pipeline (which optimizes apps) and the platform simulator
// (which deploys and invokes them).
package appspec

import "repro/internal/vfs"

// TestCase is one oracle input: the event (JSON-like) passed to the handler
// and a name for reporting. The context object is synthesized by the
// harness. This mirrors the paper's oracle specification — "a JSON file
// containing the input test cases ... each test must contain an event and a
// context" (§5).
type TestCase struct {
	Name  string
	Event map[string]any
}

// App is a deployable serverless application: a deployment image holding
// the entry module plus site-packages, the handler entry point, and the
// oracle set used for debloating.
type App struct {
	// Name identifies the application (e.g. "resnet").
	Name string
	// Image is the deployment image (entry file at the root, libraries
	// under site-packages/).
	Image *vfs.FS
	// Entry is the entry module name; the file is Entry+".py" at the image
	// root.
	Entry string
	// Handler is the handler function name inside the entry module.
	Handler string
	// Oracle is the test-case set used by the debloater (1-3 cases per
	// app in the paper's evaluation).
	Oracle []TestCase

	// SetupDelayMS is the calibrated, non-billed platform delay for a cold
	// start (instance init + image transmission) in milliseconds. Apps
	// calibrated from the paper's Table 1 carry E2E − Import − Exec here.
	SetupDelayMS float64
	// ImageSizeMB is the nominal deployment image size used for
	// image-transmission and checkpoint modeling (the synthetic library
	// text is far smaller than the binaries it stands in for).
	ImageSizeMB float64
	// MemoryMB, when positive, is the operator-chosen memory configuration
	// for this function. Zero means "configure from a profiling invocation
	// at deploy time" (the platform rounds either choice up to a billable
	// configuration).
	MemoryMB int
	// Tags carries corpus metadata (source benchmark suite, etc.).
	Tags map[string]string
}

// Clone deep-copies the app (including the image) so optimizers can mutate
// site-packages without touching the original deployment.
func (a *App) Clone() *App {
	cp := *a
	cp.Image = a.Image.Clone()
	cp.Oracle = make([]TestCase, len(a.Oracle))
	copy(cp.Oracle, a.Oracle)
	if a.Tags != nil {
		cp.Tags = make(map[string]string, len(a.Tags))
		for k, v := range a.Tags {
			cp.Tags[k] = v
		}
	}
	return &cp
}
