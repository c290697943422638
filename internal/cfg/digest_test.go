package cfg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/obj"
)

// goldenRecoverDigests pins "same analysis" for the front end: one
// SHA-256 per registry query over everything cfg.Recover produces — every
// procedure's name, extent and connectivity verdict, every instruction's
// (Addr, Size, Kind, Target, HasDelay), every block's address range and
// the String() text of every lifted statement — for the executable as
// built and again stripped (which exercises the sub_<addr> names and the
// coverage sweep). Recorded at d803591, before uir.Stmt became a flat
// value and recovery moved to dense tables; a change to the statement
// representation or to recovery's bookkeeping must leave every digest
// untouched. A deliberate change to a lifting rule re-records the table
// (the failure message prints the new value).
var goldenRecoverDigests = map[string]string{
	"CVE-2009-4593_bftpd_arm32":    "76ccc7d8ff5219f70bc9a2c88e26c4d08da13b5b92e256b33391973c737567d5",
	"CVE-2009-4593_bftpd_mips32":   "c12c2bb6181066a519f3d97c5c6ab3e808683e36e37ed625be8293cb61cc0f4f",
	"CVE-2009-4593_bftpd_ppc32":    "de06dc20274853d9ae14d8416848a187b61706be0549a0c21bbac091ace35850",
	"CVE-2009-4593_bftpd_x86":      "aef1268ac641a2788d2d39824f458314773444f3823d29c448217ec2ec2044c2",
	"CVE-2011-0762_vsftpd_arm32":   "11dea6588506e68f1ed8d79183548c4e5800924b7629f6ad4526693bea052348",
	"CVE-2011-0762_vsftpd_mips32":  "5c6b67808b1855207ed3402bbeb38f68529d0354c35283567f7151fce30fa186",
	"CVE-2011-0762_vsftpd_ppc32":   "d167b04c52ab419333f36acfd0cabd896ba18d0bf9f9a6a0a65ce95a2d009c67",
	"CVE-2011-0762_vsftpd_x86":     "be65a17134e2bc933d72eb2b98522514634c0f0c7d694cf644c14f683b63debe",
	"CVE-2012-0036_libcurl_arm32":  "d08c77feea730c124cb609e922bcdfecabef848d4ffc8e536d7afbaf808b77c2",
	"CVE-2012-0036_libcurl_mips32": "b1d50203f3bff2926dcb7eb43012e893c10724bbdc6470ad1a174d26a0a97f28",
	"CVE-2012-0036_libcurl_ppc32":  "23d255cbdb9f2fe7eee5195d042d5235061ae95b56d543d9c4b6d68c7d06b8b8",
	"CVE-2012-0036_libcurl_x86":    "365fae036bcc2543f71669ee313e179090aab42bc9dc4dd4f06234fee2d9f37c",
	"CVE-2012-2841_libexif_arm32":  "1901e6fbb83a9c1101ff6b0f81f596771f1f62ecf55f04da624bc1851892b26b",
	"CVE-2012-2841_libexif_mips32": "4de263256a571261024ebd5d7cc9af9d447d87de070f1caec7844f0f0de548ed",
	"CVE-2012-2841_libexif_ppc32":  "5fedfdf0453935b00362766a678707e469a860e1a4267cb3c82e96c1ad66a2f4",
	"CVE-2012-2841_libexif_x86":    "13403d42c9f17f6fcefa1c47b3e944994b33b3e212a542452e0575a3a0157420",
	"CVE-2013-1944_libcurl_arm32":  "dc1912a81126789f70fdaafa221ad0d2b0fd2c6ef77fd709a2b6f6e3cdbaeb63",
	"CVE-2013-1944_libcurl_mips32": "8d9922e7b51b15127a1e988a62a7bfe2ae928568d6604a91d2fb30371d677626",
	"CVE-2013-1944_libcurl_ppc32":  "5dc421882bcc4e8856666308346b5718bfa4007cc92486be05d529202b96fd12",
	"CVE-2013-1944_libcurl_x86":    "149b42dc381c06d279118c6ee65f3df5c4df1166158dd19f5e15f0ebaaeccef0",
	"CVE-2013-2168_dbus_arm32":     "33ec9050671b666c855b142f116e758f997d6c531638396f5a55284fd28da272",
	"CVE-2013-2168_dbus_mips32":    "8ac68124845c8313c82f5e85a3e140738d37b249b4c390daf4c6e40cce3bab5a",
	"CVE-2013-2168_dbus_ppc32":     "0c3a7f1aa6338f32eccc39ab12cb8ccb9c7a25bbe8d761f1f4c2b851f5d8aae5",
	"CVE-2013-2168_dbus_x86":       "9bfb02281bb05a053cdcc1a343a1027b5b9cbaed37b238a9efe0e3f84877c5fa",
	"CVE-2014-4877_wget_arm32":     "4dd702626fc9953c6d05a8b17055279b2ba8090235acef75a7b8d8a2cbac5c3a",
	"CVE-2014-4877_wget_mips32":    "e7f4b26ab8b4c6bbc4b522fef9f9b1fce791779c4b75244b21f749e84a84da20",
	"CVE-2014-4877_wget_ppc32":     "c0e53c87015de5daac9cec82c4039ede2c7376917c0312186a9552a271fe461c",
	"CVE-2014-4877_wget_x86":       "9e8cedcbb0cf70e9fe54cef2be9f1cc3a24e208d6b05660702d4f6ebca099793",
	"CVE-2015-5621_netsnmp_arm32":  "b996e4f4731c293e4accbaecdf48870c71e27111f84591ddd31bbd411c487661",
	"CVE-2015-5621_netsnmp_mips32": "f613e6b6a580d0d33841faebfe7b036545fef15a45b813880c22d7ff1ce46d3f",
	"CVE-2015-5621_netsnmp_ppc32":  "7c2849760e1109245016c75e8f17d9ccf865746fdf45569f40736dbdcb62034f",
	"CVE-2015-5621_netsnmp_x86":    "01f71c1d116c9346b678c1f51683a69eae7ad44475761dd305985155f207098e",
	"CVE-2016-8618_libcurl_arm32":  "5dea844df3903816dc10d4e9816d173636106c6bfd5afb9561c84b8a118546da",
	"CVE-2016-8618_libcurl_mips32": "11145a03f40184e28ab39e94c4c9d24d57375140eaeefb912854d6d13ebe0f85",
	"CVE-2016-8618_libcurl_ppc32":  "0c09638d15ff60b882259d85671e949742cca6f28104884333cf748dcd22f6ec",
	"CVE-2016-8618_libcurl_x86":    "5eeb4a4badd8f7776769611a1e6c3db610da8d5b22a253d72a4a54b7b8ae65ad",
}

func digestRecovered(h hash.Hash, rec *cfg.Recovered) {
	fmt.Fprintf(h, "arch %v procs %d coverage %.6f\n", rec.Arch, len(rec.Procs), rec.Coverage)
	for _, p := range rec.Procs {
		fmt.Fprintf(h, "proc %s %#x %#x exported=%v connected=%v insts=%d blocks=%d\n",
			p.Name, p.Entry, p.End, p.Exported, p.Connected, len(p.Insts), len(p.Blocks))
		for _, in := range p.Insts {
			fmt.Fprintf(h, "inst %#x %d %d %#x %v\n", in.Addr, in.Size, in.Kind, in.Target, in.HasDelay)
		}
		for _, b := range p.Blocks {
			fmt.Fprintf(h, "block %#x %d stmts=%d\n", b.Addr, b.Size, len(b.Stmts))
			for _, s := range b.Stmts {
				fmt.Fprintf(h, "  %s\n", s.String())
			}
		}
	}
}

func TestRecoverGolden(t *testing.T) {
	for _, q := range registryQueries(t) {
		f, err := obj.Read(q.data)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		h := sha256.New()
		for _, strip := range []bool{false, true} {
			if strip {
				f.Strip()
			}
			rec, err := cfg.Recover(f)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			digestRecovered(h, rec)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := goldenRecoverDigests[q.name]; got != want {
			t.Errorf("recovery of %s changed:\n\t%q: %q,\n(golden %q)", q.name, q.name, got, want)
		}
	}
}
