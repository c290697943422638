// Command fwdump inspects firmware images and executables: file tables,
// recovered procedures, disassembly and canonical strands.
//
// Usage:
//
//	fwdump -image fw.fwim                      # list executables
//	fwdump -exe wget.felf                      # list procedures
//	fwdump -exe wget.felf -proc sub_440123     # disassemble one procedure
//	fwdump -exe wget.felf -proc sub_440123 -strands
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"firmup"
	"firmup/internal/buildinfo"
	"firmup/internal/cfg"
	"firmup/internal/corpusindex"
	"firmup/internal/image"
	"firmup/internal/isa"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
)

func main() {
	imgPath := flag.String("image", "", "firmware image to list")
	exePath := flag.String("exe", "", "executable to inspect")
	proc := flag.String("proc", "", "procedure to disassemble")
	strands := flag.Bool("strands", false, "print canonical strands instead of disassembly")
	reportPath := flag.String("report", "", "write a structured JSON run report (stage timings, counters) to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof debug endpoints on this address (e.g. localhost:6060)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	var reg *telemetry.Registry
	if *reportPath != "" || *debugAddr != "" {
		reg = telemetry.New()
	}
	if *debugAddr != "" {
		addr, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fwdump: debug endpoints at http://%s/debug/\n", addr)
	}
	rep := telemetry.NewReport("fwdump", telemetry.ReportConfig{Index: true})

	switch {
	case *imgPath != "":
		dumpImage(*imgPath, reg)
	case *exePath != "":
		dumpExe(*exePath, *proc, *strands)
	default:
		fmt.Fprintln(os.Stderr, "usage: fwdump -image <file> | -exe <file> [-proc <name>] [-strands]")
		os.Exit(2)
	}

	if *reportPath != "" {
		rep.Finish(reg)
		if err := rep.WriteFile(*reportPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fwdump: wrote run report to %s\n", *reportPath)
	}
}

func dumpImage(path string, reg *telemetry.Registry) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	im, err := image.Unpack(data)
	if err != nil {
		fmt.Printf("structural unpack failed (%v); carving...\n", err)
		for i, f := range image.CarveWith(data, nil, telemetry.Span{}) {
			fmt.Printf("carved #%d: %v, entry %#x, %d syms, stripped=%v\n",
				i, f.Arch, f.Entry, len(f.Syms), f.Stripped)
		}
		return
	}
	fmt.Printf("%s %s firmware %s: %d files\n", im.Vendor, im.Device, im.Version, len(im.Files))
	for _, fe := range im.Files {
		kind := "data"
		if f, err := obj.Read(fe.Data); err == nil {
			kind = fmt.Sprintf("%v executable, stripped=%v, badclass=%v", f.Arch, f.Stripped, f.BadClass)
		}
		fmt.Printf("  %-30s %8d bytes  %s\n", fe.Path, len(fe.Data), kind)
	}

	// Analyzed view: run a one-image analyzer session and summarize what
	// a search would actually operate on.
	analyzer := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: reg})
	start := time.Now()
	img, err := analyzer.OpenImage(data)
	analyzeTime := time.Since(start)
	if err != nil {
		fmt.Printf("analysis: %v\n", err)
		return
	}
	fmt.Printf("analysis: %d searchable executable(s), %d unique strands interned, %s analyze time\n",
		len(img.Exes), analyzer.UniqueStrands(), analyzeTime.Round(time.Microsecond))
	for _, e := range img.Exes {
		procs := e.Procedures()
		strands := 0
		for _, p := range procs {
			strands += p.Strands
		}
		fmt.Printf("  %-30s %4d procedures %6d strands\n", e.Path, len(procs), strands)
	}
	for _, s := range img.Skipped {
		fmt.Printf("  %-30s skipped: %v\n", s.Path, s.Err)
	}
}

func dumpExe(path, procName string, showStrands bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	f, err := obj.Read(data)
	if err != nil {
		fatal(err)
	}
	rec, err := cfg.Recover(f)
	if err != nil {
		fatal(err)
	}
	be, err := isa.ByArch(f.Arch)
	if err != nil {
		fatal(err)
	}
	if procName == "" {
		fmt.Printf("%v executable, %d procedures, text coverage %.1f%%\n",
			f.Arch, len(rec.Procs), 100*rec.Coverage)
		ex := strand.NewExtractor(&strand.Options{ABI: be.ABI(), Sections: f.Map()}, corpusindex.NewInterner(), nil)
		defer ex.Release()
		for _, p := range rec.Procs {
			set, _ := ex.Proc(p.Blocks)
			fmt.Printf("  %-32s %#08x  %3d blocks %4d insts %4d strands connected=%v\n",
				p.Name, p.Entry, len(p.Blocks), len(p.Insts), set.Size(), p.Connected())
		}
		return
	}
	p := rec.Proc(procName)
	if p == nil {
		fatal(fmt.Errorf("no procedure %q", procName))
	}
	if showStrands {
		opt := &strand.Options{ABI: be.ABI(), Sections: f.Map()}
		for bi, b := range p.Blocks {
			fmt.Printf("block %d @ %#x:\n", bi, b.Addr)
			for _, s := range strand.ExtractBlock(b, opt) {
				fmt.Printf("  strand %016x:\n", s.Hash)
				for _, line := range splitLines(s.Text) {
					fmt.Printf("    %s\n", line)
				}
			}
		}
		return
	}
	for _, in := range p.Insts {
		fmt.Printf("%08x  %s\n", in.Addr, isa.Disasm(be, in))
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fwdump:", err)
	os.Exit(1)
}
