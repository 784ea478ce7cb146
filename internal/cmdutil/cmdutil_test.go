package cmdutil

import (
	"os"
	"runtime"
	"testing"
)

func TestResolveWorkers(t *testing.T) {
	if _, err := ResolveWorkers(-1); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := ResolveWorkers(-100); err == nil {
		t.Error("very negative workers accepted")
	}
	// 0 passes through: it is the machines' auto mode, resolved by
	// SetHostWorkers, not here.
	if w, err := ResolveWorkers(0); err != nil || w != 0 {
		t.Errorf("ResolveWorkers(0) = %d, %v; want 0 (auto)", w, err)
	}
	if w, err := ResolveWorkers(3); err != nil || w != 3 {
		t.Errorf("ResolveWorkers(3) = %d, %v; want 3", w, err)
	}
}

func TestResolveJobs(t *testing.T) {
	if _, err := ResolveJobs(-1); err == nil {
		t.Error("negative jobs accepted")
	}
	if j, err := ResolveJobs(0); err != nil || j != runtime.NumCPU() {
		t.Errorf("ResolveJobs(0) = %d, %v; want NumCPU=%d", j, err, runtime.NumCPU())
	}
	if j, err := ResolveJobs(5); err != nil || j != 5 {
		t.Errorf("ResolveJobs(5) = %d, %v; want 5", j, err)
	}
}

func TestProfileHelpersEmptyPathNoOp(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatalf("StartCPUProfile(\"\"): %v", err)
	}
	stop()
	if err := WriteHeapProfile(""); err != nil {
		t.Fatalf("WriteHeapProfile(\"\"): %v", err)
	}
}

func TestProfileHelpersWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	stop()
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}
	heap := dir + "/heap.pprof"
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatalf("WriteHeapProfile: %v", err)
	}
	if st, err := os.Stat(heap); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

func TestCheckPositive(t *testing.T) {
	if err := CheckPositive("-n", 0); err == nil {
		t.Error("zero accepted")
	}
	if err := CheckPositive("-n", -5); err == nil {
		t.Error("negative accepted")
	}
	if err := CheckPositive("-n", 1); err != nil {
		t.Errorf("1 rejected: %v", err)
	}
}

func TestCheckGraphGen(t *testing.T) {
	bad := []struct {
		name                    string
		gen                     string
		n, m, rows, cols, depth int
	}{
		{"gnm zero n", "gnm", 0, 10, 0, 0, 0},
		{"gnm negative n", "gnm", -4, 10, 0, 0, 0},
		{"gnm negative m", "gnm", 10, -1, 0, 0, 0},
		{"gnm too dense", "gnm", 4, 7, 0, 0, 0},
		{"rmat zero n", "rmat", 0, 10, 0, 0, 0},
		{"rmat too dense", "rmat", 4, 100, 0, 0, 0},
		{"mesh2d zero rows", "mesh2d", 0, 0, 0, 5, 0},
		{"mesh3d zero depth", "mesh3d", 0, 0, 5, 5, 0},
		{"torus negative cols", "torus", 0, 0, 5, -1, 0},
		{"unknown", "petersen", 10, 10, 0, 0, 0},
	}
	for _, tc := range bad {
		if err := CheckGraphGen(tc.gen, tc.n, tc.m, tc.rows, tc.cols, tc.depth); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	good := []struct {
		name                    string
		gen                     string
		n, m, rows, cols, depth int
	}{
		{"gnm", "gnm", 100, 300, 0, 0, 0},
		{"gnm complete", "gnm", 4, 6, 0, 0, 0},
		{"rmat", "rmat", 1024, 8192, 0, 0, 0},
		{"mesh2d", "mesh2d", 0, 0, 8, 9, 0},
		{"mesh3d", "mesh3d", 0, 0, 4, 4, 4},
		{"torus", "torus", 0, 0, 6, 6, 0},
	}
	for _, tc := range good {
		if err := CheckGraphGen(tc.gen, tc.n, tc.m, tc.rows, tc.cols, tc.depth); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}
}

func TestOpenCache(t *testing.T) {
	t.Setenv(CacheEnv, "")
	if s, err := OpenCache("", "test-schema"); err != nil || s != nil {
		t.Errorf("OpenCache off = %v, %v; want nil, nil", s, err)
	}

	dir := t.TempDir()
	s, err := OpenCache(dir, "test-schema")
	if err != nil || s == nil {
		t.Fatalf("OpenCache(flag) = %v, %v", s, err)
	}

	envDir := t.TempDir()
	t.Setenv(CacheEnv, envDir)
	if s, err := OpenCache("", "test-schema"); err != nil || s == nil {
		t.Fatalf("OpenCache(env) = %v, %v", s, err)
	} else if got := s.Dir(); got != envDir {
		t.Errorf("env-opened cache at %q, want %q", got, envDir)
	}

	// The flag beats the environment.
	flagDir := t.TempDir()
	if s, err := OpenCache(flagDir, "test-schema"); err != nil || s == nil {
		t.Fatalf("OpenCache(flag over env) = %v, %v", s, err)
	} else if got := s.Dir(); got != flagDir {
		t.Errorf("flag-opened cache at %q, want %q", got, flagDir)
	}
}
