package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"castencil/internal/ptg"
)

// graphDigest is a sha256 over everything an engine reads from a built
// graph: per task its ID, node, kind, priority, epoch, cost hint, body
// presence, dependency list in order (producer, bytes, Pack/Unpack
// presence) and migration sizes; then the per-node slot counts and the
// graph statistics. Successor lists are derived from Deps, so they are
// deliberately left out.
func graphDigest(g *ptg.Graph) string {
	h := sha256.New()
	for i := range g.Tasks {
		t := &g.Tasks[i]
		fmt.Fprintf(h, "T %v %d %d %d %d %+v run=%t\n",
			t.ID, t.Node, t.Kind, t.Priority, t.Epoch, t.Hint, t.Run != nil)
		for _, d := range t.Deps {
			fmt.Fprintf(h, " D %d %d %t %t\n", d.Producer, d.Bytes, d.Pack != nil, d.Unpack != nil)
		}
		if t.Mig == nil {
			fmt.Fprint(h, " M nil\n")
		} else {
			fmt.Fprintf(h, " M %d %d\n", t.Mig.InBytes, t.Mig.OutBytes)
		}
	}
	fmt.Fprintf(h, "S %v %v\n", g.NodeSlots, g.NodeBufSlots)
	writeStats(h, g.ComputeStats())
	return hex.EncodeToString(h.Sum(nil))
}

func writeStats(h hash.Hash, s ptg.Stats) {
	fmt.Fprintf(h, "stats %d %d %d %d %d %d %d\n", s.Tasks, s.Deps, s.CrossDeps, s.CrossBytes,
		s.TasksPerNodeMin, s.TasksPerNodeMax, s.CriticalPathTasks)
	kinds := make([]string, 0, len(s.KindCounts))
	for k := range s.KindCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, "kind %s %d\n", k, s.KindCounts[k])
	}
}

// digestCase is one point of the pinned matrix.
type digestCase struct {
	name string
	v    Variant
	cfg  Config
}

// digestMatrix covers Base, CA (s = 1, 3, 5) and WF (w = 2, 3) over 1x1,
// 2x1 and 2x2 node grids, five- and nine-point stencils, unsplit and split
// (WF rejects the split transform), with and without bodies. The grid is
// ragged (45 = 5*8 + 5) and the step count leaves a truncated final CA
// phase and WF block.
func digestMatrix() []digestCase {
	type fam struct {
		name string
		v    Variant
		s, w int
	}
	fams := []fam{
		{"base", Base, 0, 0},
		{"ca1", CA, 1, 0}, {"ca3", CA, 3, 0}, {"ca5", CA, 5, 0},
		{"wf2", WF, 0, 2}, {"wf3", WF, 0, 3},
	}
	var out []digestCase
	for _, f := range fams {
		for _, pq := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
			for _, nine := range []bool{false, true} {
				for _, tr := range []TransformMode{TransformNone, TransformSplit} {
					if f.v == WF && tr == TransformSplit {
						continue
					}
					for _, bodies := range []bool{true, false} {
						cfg := Config{
							N: 45, TileRows: 8, P: pq[0], Q: pq[1], Steps: 7,
							StepSize: f.s, Wavefront: f.w, NinePoint: nine,
							Transform: tr, WithBodies: bodies,
						}
						name := fmt.Sprintf("%s/%dx%d/%s/%s/bodies=%t",
							f.name, pq[0], pq[1], map[bool]string{false: "5pt", true: "9pt"}[nine], tr, bodies)
						out = append(out, digestCase{name, f.v, cfg})
					}
				}
			}
		}
	}
	return out
}

// TestGraphDigestPinned pins the exact graph every configuration of the
// matrix builds. Any change to task order, IDs, kinds, priorities, epochs,
// hints, dependency order, payload sizes, slot counts, migration sizes or
// statistics changes a digest; the engines see such a graph differently
// even when every numerical test still passes.
func TestGraphDigestPinned(t *testing.T) {
	var got []string
	fail := false
	for _, c := range digestMatrix() {
		g, err := BuildGraph(c.v, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := graphDigest(g)
		got = append(got, fmt.Sprintf("\t%q: %q,", c.name, d))
		if want, ok := pinnedDigests[c.name]; !ok || want != d {
			t.Errorf("%s: digest %s, want %s", c.name, d, want)
			fail = true
		}
	}
	if len(pinnedDigests) != len(got) {
		t.Errorf("pinned table has %d entries, matrix has %d", len(pinnedDigests), len(got))
		fail = true
	}
	if fail {
		t.Logf("current digests:\n%s", strings.Join(got, "\n"))
	}
}

// pinnedDigests were recorded from the graph builder before its flat-layout
// rewrite; they must not change.
var pinnedDigests = map[string]string{
	"base/1x1/5pt/none/bodies=true":   "065cb9241168591fafd48e60c463778fbdb5006464b0c35dda8358cf78e07983",
	"base/1x1/5pt/none/bodies=false":  "76f5f086e39f91a72951778064520e37529db6f4c28125d675386d72b601f678",
	"base/1x1/5pt/split/bodies=true":  "a8b09a00cef1bafba74236b9f90621d7c00ebbe16aa5772d0274f128f12588d5",
	"base/1x1/5pt/split/bodies=false": "52e5522ed006634724e7945bd2bb1f26cf24a65b37ac8ddeed5476548685b8f2",
	"base/1x1/9pt/none/bodies=true":   "619742115a1fc11e8ba91ccceec6f23707e6b27b633862cde9aa3a5d4307bf48",
	"base/1x1/9pt/none/bodies=false":  "32d835bea12ff7d6cb18bc5ebe9345fe8ddf3c9bf7e16a583e7e23b766aa52cf",
	"base/1x1/9pt/split/bodies=true":  "0845071d58b798589820576156150c314dbe9ce1fdb57b342f817ca6ad459620",
	"base/1x1/9pt/split/bodies=false": "7bf4b6cac7ba86b4ec35253ae9bd9da5f9f46d192ae71b30f8be39b44722d935",
	"base/2x1/5pt/none/bodies=true":   "a8e3f2007780528af7a3c5fd196e43ff124473a2d7d2ad7a99e168b50f46d496",
	"base/2x1/5pt/none/bodies=false":  "77007a27c38910c396c5f1f16e10010dfab92bfc5c57d0321c67b450f4b8f019",
	"base/2x1/5pt/split/bodies=true":  "648baf07d04f94910d8274815bd8e2b75a6d0900592790f1c6a92dbd9dea1039",
	"base/2x1/5pt/split/bodies=false": "314e688ee84090aeb411a4e18861452b2e500d90f842e2a5c0e403ae12d43bc9",
	"base/2x1/9pt/none/bodies=true":   "59f09683683b5c91519c20cf126f804fa559de3e4a9e1a0f503c5ba744d9a11c",
	"base/2x1/9pt/none/bodies=false":  "eed9f88e8711b1d6dd8040ead1913a591a0220454fa1f71ceaf2f3cd8433f199",
	"base/2x1/9pt/split/bodies=true":  "6cfc9eb202e9c05a26349b064fd061b050524ff3d932a025950ddce5408515cf",
	"base/2x1/9pt/split/bodies=false": "17488977ddd0148f114977137f14ae742db2145e06825430aa58da455d8537d7",
	"base/2x2/5pt/none/bodies=true":   "729871d01baebc0b2afeebfb52340b040ce137e46ea837df04d9dc9425700096",
	"base/2x2/5pt/none/bodies=false":  "c9d2d42df9f3667cde562b286ac74a256b2c5df357eeabbf3794105629500a49",
	"base/2x2/5pt/split/bodies=true":  "fc9e3a74806a8778a5c25b74b6f424b51d5182ee152b4ac928091749bdb3c91b",
	"base/2x2/5pt/split/bodies=false": "f6a8881abe470b843e14c61d0952a5d2861cd4aa9567673b667345fd5e508a90",
	"base/2x2/9pt/none/bodies=true":   "10e618ecb57f020ccbad0fa4747933d8ffc460acf2cb7c198ae9bd84d4d3d055",
	"base/2x2/9pt/none/bodies=false":  "b933fae14af5d6d57c1dffd9e28caf32927775a7d8f7ece3400cb08f3d3113d1",
	"base/2x2/9pt/split/bodies=true":  "cd73b483c6f604cb1c1667278ff9a215ccf4b7eaf7333324ee6085b8ee8b378a",
	"base/2x2/9pt/split/bodies=false": "3f65fae85a84c58d69047f7aeec8608306609d4ae60998f68d98d06996f1846c",
	"ca1/1x1/5pt/none/bodies=true":    "065cb9241168591fafd48e60c463778fbdb5006464b0c35dda8358cf78e07983",
	"ca1/1x1/5pt/none/bodies=false":   "76f5f086e39f91a72951778064520e37529db6f4c28125d675386d72b601f678",
	"ca1/1x1/5pt/split/bodies=true":   "a8b09a00cef1bafba74236b9f90621d7c00ebbe16aa5772d0274f128f12588d5",
	"ca1/1x1/5pt/split/bodies=false":  "52e5522ed006634724e7945bd2bb1f26cf24a65b37ac8ddeed5476548685b8f2",
	"ca1/1x1/9pt/none/bodies=true":    "619742115a1fc11e8ba91ccceec6f23707e6b27b633862cde9aa3a5d4307bf48",
	"ca1/1x1/9pt/none/bodies=false":   "32d835bea12ff7d6cb18bc5ebe9345fe8ddf3c9bf7e16a583e7e23b766aa52cf",
	"ca1/1x1/9pt/split/bodies=true":   "0845071d58b798589820576156150c314dbe9ce1fdb57b342f817ca6ad459620",
	"ca1/1x1/9pt/split/bodies=false":  "7bf4b6cac7ba86b4ec35253ae9bd9da5f9f46d192ae71b30f8be39b44722d935",
	"ca1/2x1/5pt/none/bodies=true":    "8fe8095bb8f350a4a50cdd5f0f3d4f7ea9fed2a4895f4086e3f846dc6a2923a9",
	"ca1/2x1/5pt/none/bodies=false":   "12cc0c4d53102d1bd2e12f4c2ef203aec22257036578594c9c4da1cbb3b737fe",
	"ca1/2x1/5pt/split/bodies=true":   "2bf0d5b5a822ab8d51bd3d0a3e3e7db96fc2b010f356a74c391514567dc46c0c",
	"ca1/2x1/5pt/split/bodies=false":  "e86417706475e6e8b6b7a536e4d9b27afc98eda594ec68c8994afba11bb3dd7d",
	"ca1/2x1/9pt/none/bodies=true":    "a8bb10d65cac40ec3615138f5af9e28d09029d23f0405870dd52aebaa194e005",
	"ca1/2x1/9pt/none/bodies=false":   "eed9f88e8711b1d6dd8040ead1913a591a0220454fa1f71ceaf2f3cd8433f199",
	"ca1/2x1/9pt/split/bodies=true":   "13fea4390b62dcb20316e5fe4a0c25ca8409e9e69db7b7e4dd057022f0b28a52",
	"ca1/2x1/9pt/split/bodies=false":  "17488977ddd0148f114977137f14ae742db2145e06825430aa58da455d8537d7",
	"ca1/2x2/5pt/none/bodies=true":    "89b68d2c4000bf12831fc409042d5439fc31c1be87ed5fbfb7f7bf56d659b2cc",
	"ca1/2x2/5pt/none/bodies=false":   "c9232b0656af0bdffa2a892f047c569857c72cec5600d043201ecf64f2571c71",
	"ca1/2x2/5pt/split/bodies=true":   "009c10ea31e6300951678d7a1b7836778ab7f6bd37ed44551c7d66c755c6abc7",
	"ca1/2x2/5pt/split/bodies=false":  "0adc0dacaeb95d19fa1c985b28b1cb86c2eadc68c1ff056aab4ce33161bc7776",
	"ca1/2x2/9pt/none/bodies=true":    "2596213a4f22736994719ba556e2e57c0a2b6af2bfd2cd41d82a164da56f0fbf",
	"ca1/2x2/9pt/none/bodies=false":   "b933fae14af5d6d57c1dffd9e28caf32927775a7d8f7ece3400cb08f3d3113d1",
	"ca1/2x2/9pt/split/bodies=true":   "7729eae5a16f0754e599d0f44c712db8d091453fbf1a5a1258500edb2f11ef6e",
	"ca1/2x2/9pt/split/bodies=false":  "3f65fae85a84c58d69047f7aeec8608306609d4ae60998f68d98d06996f1846c",
	"ca3/1x1/5pt/none/bodies=true":    "065cb9241168591fafd48e60c463778fbdb5006464b0c35dda8358cf78e07983",
	"ca3/1x1/5pt/none/bodies=false":   "76f5f086e39f91a72951778064520e37529db6f4c28125d675386d72b601f678",
	"ca3/1x1/5pt/split/bodies=true":   "a8b09a00cef1bafba74236b9f90621d7c00ebbe16aa5772d0274f128f12588d5",
	"ca3/1x1/5pt/split/bodies=false":  "52e5522ed006634724e7945bd2bb1f26cf24a65b37ac8ddeed5476548685b8f2",
	"ca3/1x1/9pt/none/bodies=true":    "619742115a1fc11e8ba91ccceec6f23707e6b27b633862cde9aa3a5d4307bf48",
	"ca3/1x1/9pt/none/bodies=false":   "32d835bea12ff7d6cb18bc5ebe9345fe8ddf3c9bf7e16a583e7e23b766aa52cf",
	"ca3/1x1/9pt/split/bodies=true":   "0845071d58b798589820576156150c314dbe9ce1fdb57b342f817ca6ad459620",
	"ca3/1x1/9pt/split/bodies=false":  "7bf4b6cac7ba86b4ec35253ae9bd9da5f9f46d192ae71b30f8be39b44722d935",
	"ca3/2x1/5pt/none/bodies=true":    "bed071072f3acc088e8377a62f0e350a210411512153d66ec9ebc1e2a859f0ba",
	"ca3/2x1/5pt/none/bodies=false":   "889be6111d095f0530a38188bc7030ec1a8dcf9b1daffd55af19dec2712a86a2",
	"ca3/2x1/5pt/split/bodies=true":   "72b088d74da44bd0d3cb59045bb2db0abe0a6eb23aeda9849d84ff259af388df",
	"ca3/2x1/5pt/split/bodies=false":  "272849b05fcddc0a90f430966a6f9c051d9b9b8399615e34140756d096bd257f",
	"ca3/2x1/9pt/none/bodies=true":    "23a2c7ae10a0454d9f32da2dfad805f08fcd36e0ddf26a9662b304755faa8d6b",
	"ca3/2x1/9pt/none/bodies=false":   "d951c52f3c74ed3deab7628f644d7e2baa7cfd9d0c485c06cb6a369799f0ef85",
	"ca3/2x1/9pt/split/bodies=true":   "0b34a7543eeec2327b91a07f6fb7509c1af0b027bbcc209e00a90d7d5362755b",
	"ca3/2x1/9pt/split/bodies=false":  "b31c53f82629f5986e0d874499e51206f3e07d8239b7dd8c6be8fd76b0665763",
	"ca3/2x2/5pt/none/bodies=true":    "e795fbfaeb4f87789ab865d5b7caffd3aded9b268c71ac3d71f133a909f6bfb9",
	"ca3/2x2/5pt/none/bodies=false":   "cf98c76d5f5b8e916926b0bd4bd066d8dd565e69ad7ddcfa06a48b938c22b311",
	"ca3/2x2/5pt/split/bodies=true":   "3385749c975187b9026cf63287311f3e12da2e83faf906ccfe5449f5e03856ac",
	"ca3/2x2/5pt/split/bodies=false":  "6af51526e7ac524dfb88ec95c66adb91181af7259654155af97bda0a5b376fb8",
	"ca3/2x2/9pt/none/bodies=true":    "81cc0ea258c767cc4abba12c589f0024e3d33528194203d558484850409ae36d",
	"ca3/2x2/9pt/none/bodies=false":   "da97a370a4726be22e1d91100d0498f89c5e74b5f4647b1563450f109d0f8c21",
	"ca3/2x2/9pt/split/bodies=true":   "7b90a942a9bceba2a2c8a28981ec152353d89f73e1999b18cfcb108e44a13353",
	"ca3/2x2/9pt/split/bodies=false":  "48b1b206d30a04a5c4d7cdac61227fc1f0dc3c14507f19ce1bef7c39c8d52dfc",
	"ca5/1x1/5pt/none/bodies=true":    "065cb9241168591fafd48e60c463778fbdb5006464b0c35dda8358cf78e07983",
	"ca5/1x1/5pt/none/bodies=false":   "76f5f086e39f91a72951778064520e37529db6f4c28125d675386d72b601f678",
	"ca5/1x1/5pt/split/bodies=true":   "a8b09a00cef1bafba74236b9f90621d7c00ebbe16aa5772d0274f128f12588d5",
	"ca5/1x1/5pt/split/bodies=false":  "52e5522ed006634724e7945bd2bb1f26cf24a65b37ac8ddeed5476548685b8f2",
	"ca5/1x1/9pt/none/bodies=true":    "619742115a1fc11e8ba91ccceec6f23707e6b27b633862cde9aa3a5d4307bf48",
	"ca5/1x1/9pt/none/bodies=false":   "32d835bea12ff7d6cb18bc5ebe9345fe8ddf3c9bf7e16a583e7e23b766aa52cf",
	"ca5/1x1/9pt/split/bodies=true":   "0845071d58b798589820576156150c314dbe9ce1fdb57b342f817ca6ad459620",
	"ca5/1x1/9pt/split/bodies=false":  "7bf4b6cac7ba86b4ec35253ae9bd9da5f9f46d192ae71b30f8be39b44722d935",
	"ca5/2x1/5pt/none/bodies=true":    "bd17da1d1b768f05f4012094281c0e7b921143d0ea47b0af71fb26eabae034c0",
	"ca5/2x1/5pt/none/bodies=false":   "e14397278ac6959663c3a96b23558bffafc62b191fe29a8d5120bfe14a38d09b",
	"ca5/2x1/5pt/split/bodies=true":   "472a0ba4dad0f3abea85a3fdc5c8835575fb9b5db583dc6f209e48c099567aec",
	"ca5/2x1/5pt/split/bodies=false":  "3a0d23ec00c7bbed19f11ac37e96ea83e447b9e31aeff06e44fa2548fd56b778",
	"ca5/2x1/9pt/none/bodies=true":    "86684a9828856d88981fb72bd9aa64c816a57ff6a8b0b6539d19a37542bc0e27",
	"ca5/2x1/9pt/none/bodies=false":   "6be8ad61f130ed9b9edccbb8afed1c90f4c65f37625c08a0a775abac6276e4b0",
	"ca5/2x1/9pt/split/bodies=true":   "9261ff56caefc1d45dffd7eca7ce18cca63839066e77aa51d3dfd9e3c56a06b6",
	"ca5/2x1/9pt/split/bodies=false":  "3bb39a2751eaa1617ca04474274e3526ad202647c93ed1e2267ddbe70b89c051",
	"ca5/2x2/5pt/none/bodies=true":    "7f3063d9b766c06a118c63091701feca19c1c978796aab395c8b13f1cfe9631b",
	"ca5/2x2/5pt/none/bodies=false":   "90758c6cf3d6a78f359a7278da71ae75685f18b6c75c477807defac219ee730f",
	"ca5/2x2/5pt/split/bodies=true":   "dd065d290eb994f3eabe2459cd43615c7534ba868a4570d3febb0d347cd3c38b",
	"ca5/2x2/5pt/split/bodies=false":  "89ef6e76afada646f5af04b4645e7e14cfcfbffdc56c0b08aa28c126aa02dfe6",
	"ca5/2x2/9pt/none/bodies=true":    "317a4ed5ce6723125379b72b45f5fd0d7564ba729b0cf14058f151502f75af1d",
	"ca5/2x2/9pt/none/bodies=false":   "28f72f72d507327fe82bd4ef668582b95c53327489478d7c937f604f9f2eae10",
	"ca5/2x2/9pt/split/bodies=true":   "91d960f6f83513a083524db045dc67b179597021379b4889942a21e0dfe09f11",
	"ca5/2x2/9pt/split/bodies=false":  "66602a718de1c864f080166d8ed62dba65e10e3983b00bc2327106fc18faba0f",
	"wf2/1x1/5pt/none/bodies=true":    "0f8bbb30ca387fd33f95c6c3de95fe2d81ce210348e93918173429adeeb6018a",
	"wf2/1x1/5pt/none/bodies=false":   "358657d73015060f38113130e63d25e49f37bbb61f2cbc4e85fdcb70a62802b2",
	"wf2/1x1/9pt/none/bodies=true":    "b73df602a34cb0cd2f526bd1c3b89ba728ed5554c1cce26286ca2d88b4be6a19",
	"wf2/1x1/9pt/none/bodies=false":   "8acaf1b5f2122ec2a56920922597588327b0ba7e1009644c2d23849d3a4a4939",
	"wf2/2x1/5pt/none/bodies=true":    "f4e33c392543a18b7f783e48fbba6e001fc9c4c3473548c6b60f921ee412a38a",
	"wf2/2x1/5pt/none/bodies=false":   "972a6b26ed62b5ed767b1a25f57d3581a528db30f00d3631c1d234609b7dfe1a",
	"wf2/2x1/9pt/none/bodies=true":    "f5ef1b79002895430d053e356d790a434b509f4c4ae6b7d481856e29e2a41b1f",
	"wf2/2x1/9pt/none/bodies=false":   "5a0350a3d5ecc6edbf4ba8d9d59e3c2473fa2a40fd0274ef639e46a54ec44c04",
	"wf2/2x2/5pt/none/bodies=true":    "52a3417c436b01a54408fda4cb96d84ac74fb89b1615373d19ef98ac52175f61",
	"wf2/2x2/5pt/none/bodies=false":   "cec438cf536442365d504bbe94eb6fe2aba3c4c31b9b4a2e61dbfa7fd5a0c220",
	"wf2/2x2/9pt/none/bodies=true":    "b9cca295698a716bc0970cef8d0aebbead99bce6245e7e77127b491b950bfa27",
	"wf2/2x2/9pt/none/bodies=false":   "c77ac06a24f34d13ee65765b1616a57aac2865bc34a04af4c257ad3488573373",
	"wf3/1x1/5pt/none/bodies=true":    "95d8489e76914a2721339b7f3cfc751f2f19ccd2723c503d43884ec91a97aaf8",
	"wf3/1x1/5pt/none/bodies=false":   "c9c31f1088d1acdac7a90e0a48f75c3514e15e68f2199bfa5b99ae9506fe5b5d",
	"wf3/1x1/9pt/none/bodies=true":    "00191dc6be561661213ade51146aba30c42ca520bdd77c6dc7cea19aa9b07288",
	"wf3/1x1/9pt/none/bodies=false":   "f8833211d32a92d298f6ac45c8e3d79698ecf6287adde400969a935498bdbaa5",
	"wf3/2x1/5pt/none/bodies=true":    "fb6efed210a1c60de8e140b6f86f915c0010d75de55c5f3d08c368b1e3491c6d",
	"wf3/2x1/5pt/none/bodies=false":   "7119b6e6f765b02deb2c46deffaa01834740933ab82d4e993cb2955e856a69d5",
	"wf3/2x1/9pt/none/bodies=true":    "71b5a14458df3c5366caac30891e348767702a42c12f30598ad43403dd6e0d0c",
	"wf3/2x1/9pt/none/bodies=false":   "fc5ed19854bb9ca9f3bdc470f7a8f04ba866d244f810bfac174d64df0fc8f921",
	"wf3/2x2/5pt/none/bodies=true":    "15d4a4e78d78e06a774bddc78fa1b629d07bfb44c0ca5d94443e41e10a63df4d",
	"wf3/2x2/5pt/none/bodies=false":   "b1a1643be03a301fd3cc093c5be14467dedd88ddd109e98665940b1014faf911",
	"wf3/2x2/9pt/none/bodies=true":    "38462e1ea3853ae0383901b3d9d5f5e5b975c36d76d2a2395bb25a9b70596498",
	"wf3/2x2/9pt/none/bodies=false":   "6e6c72a76791e046f4d12b7e7eb3adee38cd7baeccafb700bf7c71563ef2ca11",
}
