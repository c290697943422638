package cfg_test

import (
	"math/rand"
	"strings"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/obj"
)

// FuzzRecover drives the front end — obj.Read, cfg.Plan and cfg.Recover,
// sim.BuildWith — with arbitrary bytes. firmupd runs the plan and the
// build on every upload, and recovery keeps its bookkeeping in dense
// tables indexed by arithmetic over what the file claims (section
// addresses, branch targets, symbol addresses), so the contract under
// fuzzing is: an error or a result, never a panic, a result that upholds
// the order consumers search by, the coverage pass claiming what its
// reference claims, the build over the plan, which lifts each
// procedure inside the build, equal to the build over Recover's
// executable lifted whole, and every procedure's pipeline set, IDs
// alone, equal to the inspection form's under a live and a query session.
func FuzzRecover(f *testing.F) {
	// One registry query per ISA (the smallest package), so mutations
	// start deep inside every decoder and lifter.
	for _, q := range registryQueries(f) {
		if !strings.HasPrefix(q.name, "CVE-2012-2841_libexif_") {
			continue
		}
		f.Add(q.data)
		for _, v := range seedVariants(f, q.data) {
			f.Add(v)
		}
	}
	damaged, _ := unliftableCallee(f)
	f.Add(damaged)
	f.Add([]byte{})
	f.Add(obj.Magic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := obj.Read(data)
		if err != nil {
			return
		}
		rec, err := cfg.Recover(file)
		if err != nil {
			return
		}
		checkRecoveredOrder(t, rec)
		checkCoverage(t, "fuzz input", file)
		checkPlannedBuild(t, "fuzz input", file)
	})
}

// seedVariants derives the damaged forms of one valid executable:
// truncations, bit flips in the text, and the header quirks obj tolerates
// or recovery must reject.
func seedVariants(tb testing.TB, data []byte) [][]byte {
	tb.Helper()
	reparse := func() *obj.File {
		file, err := obj.Read(data)
		if err != nil {
			tb.Fatal(err)
		}
		return file
	}
	var out [][]byte
	// Truncated: inside the header, inside the text, inside the symbols.
	for _, n := range []int{10, 24, len(data) / 3, len(data) - 7} {
		out = append(out, data[:n])
	}
	// Bit-flipped text: undecodable words, wild branch and call targets,
	// delay slots at extent ends.
	rng := rand.New(rand.NewSource(int64(len(data))))
	for _, flips := range []int{8, 256} {
		file := reparse()
		text := file.Text().Data
		for i := 0; i < flips; i++ {
			text[rng.Intn(len(text))] ^= 1 << rng.Intn(8)
		}
		out = append(out, file.Bytes())
	}
	// Header quirks.
	quirks := []func(*obj.File){
		func(file *obj.File) { file.BadClass = true },
		func(file *obj.File) { file.Strip() },
		func(file *obj.File) { file.Entry = 3 },                          // entry point outside the text
		func(file *obj.File) { file.Entry = file.Text().Addr + 1 },       // entry point inside an instruction
		func(file *obj.File) { file.Text().Addr = 0xFFFFFFF0 },           // text wraps the address space
		func(file *obj.File) { file.Text().Addr = 0xFFFFFFFF - 0x4000 },  // text ends at the last address
		func(file *obj.File) { file.Text().Data = nil },                  // empty text
		func(file *obj.File) { file.Text().Data = file.Text().Data[:3] }, // text shorter than an instruction
		func(file *obj.File) { file.Sections = file.Sections[1:] },       // no text at all
		func(file *obj.File) { // symbols outside the text, overlapping and zero-sized
			for i := range file.Syms {
				switch i % 3 {
				case 0:
					file.Syms[i].Addr += 0x7FFF0000
				case 1:
					file.Syms[i].Size = 0
				}
			}
		},
	}
	for _, quirk := range quirks {
		file := reparse()
		quirk(file)
		out = append(out, file.Bytes())
	}
	return out
}

// checkRecoveredOrder asserts the invariant stated on cfg.Recovered:
// procedures strictly ascending by entry, each procedure's blocks strictly
// ascending by address, inside the procedure's extent.
func checkRecoveredOrder(t *testing.T, rec *cfg.Recovered) {
	t.Helper()
	for i, p := range rec.Procs {
		if i > 0 && rec.Procs[i-1].Entry >= p.Entry {
			t.Fatalf("procedures %d and %d out of order: entries %#x, %#x", i-1, i, rec.Procs[i-1].Entry, p.Entry)
		}
		if len(p.Insts) == 0 || len(p.Blocks) == 0 || p.Insts[0].Addr != p.Entry || p.Blocks[0].Addr != p.Entry {
			t.Fatalf("%s: %d instructions, %d blocks, not starting at the entry %#x", p.Name, len(p.Insts), len(p.Blocks), p.Entry)
		}
		for j, b := range p.Blocks {
			if j > 0 && p.Blocks[j-1].Addr >= b.Addr {
				t.Fatalf("%s: blocks %d and %d out of order: %#x, %#x", p.Name, j-1, j, p.Blocks[j-1].Addr, b.Addr)
			}
			if b.Addr < p.Entry || b.Addr >= p.End {
				t.Fatalf("%s: block %#x outside the extent [%#x, %#x)", p.Name, b.Addr, p.Entry, p.End)
			}
		}
	}
}

// TestRecoveredOrder checks the order invariant on every registry query,
// as built and stripped.
func TestRecoveredOrder(t *testing.T) {
	for _, q := range registryQueries(t) {
		file, err := obj.Read(q.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, strip := range []bool{false, true} {
			if strip {
				file.Strip()
			}
			rec, err := cfg.Recover(file)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			checkRecoveredOrder(t, rec)
		}
	}
}
