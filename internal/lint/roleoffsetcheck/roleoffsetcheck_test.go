package roleoffsetcheck_test

import (
	"testing"

	"gcx/internal/lint/gcxlint/linttest"
	"gcx/internal/lint/roleoffsetcheck"
)

func TestRoleOffsetCheck(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), roleoffsetcheck.Analyzer, "gcxok/internal/eval", "gcxbad/internal/engine")
}
