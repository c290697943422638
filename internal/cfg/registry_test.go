package cfg_test

import (
	"fmt"
	"testing"

	"firmup/internal/corpus"
	"firmup/internal/uir"
)

// registryQuery is one of the 36 registry query executables (9 CVEs x 4
// ISAs) as FWELF bytes.
type registryQuery struct {
	name string // <CVE>_<package>_<arch>
	data []byte
}

// registryQueries builds every registry query for every ISA, the way the
// analyst's query is built (corpus.QueryExe).
func registryQueries(tb testing.TB) []registryQuery {
	tb.Helper()
	var out []registryQuery
	for ci := range corpus.CVEs {
		cve := &corpus.CVEs[ci]
		for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
			file, err := corpus.QueryExe(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, registryQuery{
				name: fmt.Sprintf("%s_%s_%v", cve.ID, cve.Package, arch),
				data: file.Bytes(),
			})
		}
	}
	return out
}
