package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started
// with M2C_TEST_MAIN set, so tests can check its output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("M2C_TEST_MAIN") != "" {
		os.Args = append(os.Args[:1], strings.Fields(os.Getenv("M2C_TEST_MAIN"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLintFilters runs m2c -lint over the example fixtures with the
// finding-code filters: an unknown code or a filter without -lint is a
// usage error, empty entries in a code list are skipped, -disable wins
// over -enable, and -werror counts only the findings that survive the
// filters.
func TestLintFilters(t *testing.T) {
	for _, tc := range []struct {
		args  string
		exit  int
		codes []string // the bracketed codes on stdout, in order
	}{
		{args: "-lint -enable bogus LintFindings", exit: 2},
		{args: "-lint -disable unused-import,nope LintFindings", exit: 2},
		{args: "-werror Demo", exit: 2},
		{args: "-disable uninit Demo", exit: 2},
		{args: "-lint -werror LintClean", exit: 0},
		{args: "-lint -werror LintFindings", exit: 1, codes: []string{
			"unused-export", "unused-import", "unused-import", "unused-param", "unused-local",
			"uninit", "unreachable", "never-called", "unused-export", "unused-export"}},
		{args: "-seq -lint -werror LintFindings", exit: 1, codes: []string{
			"unused-export", "unused-import", "unused-import", "unused-param", "unused-local",
			"uninit", "unreachable", "never-called", "unused-export", "unused-export"}},
		{args: "-lint -enable uninit,unreachable -disable uninit LintFindings", exit: 0, codes: []string{"unreachable"}},
		{args: "-lint -werror -enable uninit -disable uninit LintFindings", exit: 0},
		{args: "-lint -werror -enable conc-guard LintFindings", exit: 0},
		{args: "-lint -werror -enable unreachable LintFindings", exit: 1, codes: []string{"unreachable"}},
		{args: "-lint -werror -enable unreachable,,uninit, LintFindings", exit: 1, codes: []string{"uninit", "unreachable"}},
		{args: "-seq -lint -werror -disable unused-export,unused-import,unused-param,unused-local,uninit,unreachable,never-called LintFindings", exit: 0},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "M2C_TEST_MAIN=-I ../../examples/modules "+tc.args)
		out, err := cmd.Output()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		var codes []string
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if i := strings.LastIndexByte(line, '['); i >= 0 && strings.HasSuffix(line, "]") {
				codes = append(codes, line[i+1:len(line)-1])
			}
		}
		if exit != tc.exit || strings.Join(codes, " ") != strings.Join(tc.codes, " ") {
			t.Errorf("m2c %s: exit %d, codes %v; want exit %d, codes %v", tc.args, exit, codes, tc.exit, tc.codes)
		}
	}
}
