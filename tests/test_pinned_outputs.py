"""Byte-level pins of the command line's stdout, and of the files
``color --out`` writes.

Every stdout sha256 the project pins is here, the larger builds once
pinned only in CI included, so a change that re-pins a colouring edits
this one table.  Three stay in test_cli.py beside the checks they go
with: the pooled searches at n = 330 and 1100, whose colourings it also
verifies, and the n = 210,000 JSON, written under a memory limit.

The digests were recorded before the edge representation, the JSON/CSV
writers and the tiling were rewritten for speed.  A change to any colour,
to the order of the edge list, or to the formatting of either output
format shows up here as a different digest.
"""

import hashlib

import pytest

from circulant_coloring.cli import COLOR_METHODS, EXIT_OK, EXIT_VERIFICATION, main
from circulant_coloring.coloring import write_coloring_json
from circulant_coloring.constructions import color_power_cycle_even


def up_to(m: int) -> str:
    """The generators 1,2,...,m, as ``seq -s, 1 m`` writes them."""
    return ",".join(map(str, range(1, m + 1)))


# run name -> argv without --format; every COLOR_METHODS entry at a small
# admissible n, then larger builds.
COLOR_RUNS = {
    "thm21-even": "color --method thm21-even --n 18 --k 4 --i 5",
    # a budget of 400 nodes makes the pooled 1-factorization give up (it
    # needs 1,094), so the residual distances are colored by the fallback,
    # the pooled search over every residual distance (355 nodes)
    "thm21-even-fallback":
        "--budget 400 color --method thm21-even --n 38 --k 18 --i 1",
    # the residual distances 6..10 are all peeled, with gcd(176, d) of 1,
    # 2 and 8: the two colors of a peeled distance alternate in runs of gcd
    "thm21-even-peeled": "color --method thm21-even --n 176 --k 10 --i 1",
    "thm21-odd": "color --method thm21-odd --n 21 --k 6 --i 1",
    "thm22": "color --method thm22 --n 18 --k 4",
    # n > 2(2k+1): the distance-1 matchings are not rainbow, but the NSD
    # check still passes
    "thm22-not-rainbow": "color --method thm22 --n 54 --k 4",
    "thm31": "color --method thm31 --n 20 --gens 1,2,3,4,5,7,8",
    "thm32": "color --method thm32 --n 24 --gens 1,3,4,5,10",
    "thm33": "color --method thm33 --n 24 --gens 1,3,4,5,7,10,11 "
             "--m-gens 1,3,4,5,10",
    "thm34": "color --method thm34 --n 18 --gens 1,2,4,6,7,8 "
             "--s1-gens 1,2,4,6",
    # the NSD step recolors the cycle of the unit distance 5, not 1
    "thm34-unit5": "color --method thm34 --n 18 --gens 1,2,3,5,8 "
                   "--s1-gens 2,3,5,8",
    "canonical": "color --method canonical --n 7",
    # even order: K_9's matrix without its vertex 8, 9 colours, equitable
    "canonical-even": "color --method canonical --n 8",
    # K_10: the folded row by which the oracle decides chi''(K_10) = 11
    "canonical-10": "color --method canonical --n 10",
    # the pooled 1-factorization (252 edges, 12 colours) needs 273 of the
    # 20,000 nodes
    "thm21-even-pooled":
        "--budget 20000 color --method thm21-even --n 42 --k 20 --i 1",
    # recorded before the Vizing edge coloring moved to colour-indexed
    # arrays and bitmasks: the residual C_1001(6..10) takes 5,005 edges
    "thm21-odd-1001": "color --method thm21-odd --n 1001 --k 10 --i 1",
    # Vizing on distances 6, 7 and 8
    "thm21-odd-2431": "color --method thm21-odd --n 2431 --k 8 --i 3",
    # Delta 64: the colour masks take more than 64 bits
    "thm21-odd-wide": "color --method thm21-odd --n 195 --k 64 --i 1",
    "thm22-1050": "color --method thm22 --n 1050 --k 10",
    # dense rows near the wrap
    "thm32-dense": "color --method thm32 --n 200 --gens " + up_to(49),
    "canonical-101": "color --method canonical --n 101",
    "canonical-1001": "color --method canonical --n 1001",
    # K_151 folded twice
    "thm34-dense": "color --method thm34 --n 302 --gens %s,77 --s1-gens %s"
                   % (up_to(75), up_to(75)),
    "thm33-dense": "color --method thm33 --n 200 --gens %s,51 --m-gens %s"
                   % (up_to(49), up_to(49)),
}

COLOR_DIGESTS = {
    ("thm21-even", "json"):
        "9d94320e5d3933a2c5894e18b624a0e1ce8b9e3cf5489841fd34d832a42664bd",
    ("thm21-even", "csv"):
        "16933b45b26299210420b3685517bb24d6da545de4b40f9282ac60dc3ee5949d",
    ("thm21-even-fallback", "json"):
        "a55717f36a5e019865e72a639c0fcf6388747561de17fe5c3c170dfac39d9253",
    ("thm21-even-fallback", "csv"):
        "759aacc8314ed92408976aad562ee164661fa286e36cd8dc368927031f8a7f41",
    ("thm21-even-peeled", "json"):
        "4a1f066c3e0f3e073a1d71a3113ca4edda7ba1ecff0ee1455b50a35db7003503",
    ("thm21-even-peeled", "csv"):
        "ced05bdeb21ddfab96154cd191ed22abb99a1f88e10b06fde05d2392a7edcf9e",
    ("thm21-odd", "json"):
        "57352883c070bff0ce1a7da104844728a6e89ec53813236e039e4fc2a5bd32ab",
    ("thm21-odd", "csv"):
        "8305ec53b0530d4be62621bfa01320ab3dd57f8f7e8d7936562d00a3704e8cda",
    ("thm22", "json"):
        "f00bee687229003b514a20a0810677d63dc6fd1bb59414d883941f9464784b78",
    ("thm22", "csv"):
        "9941acd67aeaa3260762e80fb4ec25a7e2d42268d33d84031b3cb0b6da41e913",
    ("thm22-not-rainbow", "json"):
        "89cb487a0d6e091aeb94bb5b14c0ed0943abd81bde254e4229a6331f41a50289",
    ("thm22-not-rainbow", "csv"):
        "417aa29bcc02f9664755944a32136a0926fefb89ccc7e9d89e794cc17598a937",
    ("thm31", "json"):
        "36c77630810bd23f53457283760617a74da96a2dd3ddc4b0f5f0b8f1f6759453",
    ("thm31", "csv"):
        "c22b5292626baab1001739addb4e7f377825a19911544f15feffbb57caed4ef8",
    ("thm32", "json"):
        "07d7dc4f8ba7b4ccb9988565153884719286cfc064f3120c5cccd5d2cb9877f0",
    ("thm32", "csv"):
        "d56c9ffc2e90502bef1bc18defa18f3aa856183cace4f32f32164a3b763b6750",
    ("thm33", "json"):
        "1c81f3aa6060208cb9c6b615667cde7d6f72d08eb3c87bf0e72b7260e68cc250",
    ("thm33", "csv"):
        "b341b05328750419e7a1d2e5872e2e3343a89aa8956854c6be2efc12f547f49f",
    ("thm34", "json"):
        "44180c3b9f42a70b65013ab517c26ed5b671b7d9f8264a3011af1e55e12913cf",
    ("thm34", "csv"):
        "17ebb08f40b60cad3277da4dd0d1e610fa46526244a6f3804fcb213a0233af0f",
    ("thm34-unit5", "json"):
        "bd68ac9b924dea72ca8204edc3b4b10c7079db5daa9889d960c2734007b24006",
    ("thm34-unit5", "csv"):
        "5d7249c92af93b41d25f82f4c10f1ad80c9f42fda01c06795e7e694e062eca83",
    ("canonical", "json"):
        "5b5767d92ee2c4ac2001ab3e85fb9556642cc85e7bee526eb186cefc51f8cb40",
    ("canonical", "csv"):
        "66430b82732c6a87ec505a062a0f46cf2f114426c3267752b5d0e4ba7641534d",
    ("canonical-even", "json"):
        "6ff01741d1e73d9baa3d46c2d60a0f3d1db4d4b183e8a26a29343d63c998c891",
    ("canonical-even", "csv"):
        "b1820fdc514663e1857608867b53bee774d781c35291d761b4e1e6b374b0c12e",
    ("canonical-10", "json"):
        "382d98756b529c1fa021d925cd2701903c272938a1eebac9b5540989fa8cf75f",
    ("thm21-even-pooled", "json"):
        "687daed7895c4cb050de3e22dda3955a4ef37a6d68932de4cf3219a1983a2e9b",
    ("thm21-odd-1001", "json"):
        "2bd3e65bcea3b63b2c78d346eaef502f64954678d765e4684eb9ef97a815acac",
    ("thm21-odd-2431", "json"):
        "9599c7f0a77d5c7caf055528ab88d45bad2f21f0b5a227663304da168c4a5e22",
    ("thm21-odd-wide", "json"):
        "e11e14b70564e835facdab20b1ec752e3c0e4ceda5cb783096c3e6aeade2949a",
    ("thm22-1050", "json"):
        "68d5ffd4852ca5ae3673213a2d67547a99f9e1fd697257eb8409927c37ce26b6",
    ("thm32-dense", "json"):
        "93a12c1928f4e0be89ef604e9deb0b24afea4fb1f0fdb7bd7dfac91113259832",
    ("thm32-dense", "csv"):
        "a88f6c28e45dca80ba2c22ca19fb5f11d010fdbadba0aaf55cad48ded5c09579",
    ("canonical-101", "json"):
        "8f9a99579720cc5b52d477877eba8ab543bda2dda00b31d201ead77563a31f00",
    ("canonical-101", "csv"):
        "e781b6b3b3181c6a1ffb2913726c8dd4d44cee9a5ac2f13d69ef4350e562f2da",
    ("canonical-1001", "csv"):
        "30ecfc443df93f1a5c4753e7e3ee943cbea95f7e31aab4079db8c68300d909a1",
    ("thm34-dense", "json"):
        "c2ecb18e93135c803ba69044a0575e4df3946fdb42ef3f2424c0c306c5d8a13f",
    ("thm33-dense", "json"):
        "97527bc8cad4b9bd7c4bbb2dfb76135834bec0a6dc2197bc362ca4e7ea339b35",
}

# verify report of C_18^4 with its smallest edge recoloured to the colour
# of its lower endpoint; the witnesses print the edge as Edge(u=.., v=..)
IMPROPER_VERIFY_DIGEST = (
    "4d400d1d0c4c2a7f62f3de35ca6319d267bdbd5b19d2d3835d6eddcdee19ee15")


# run -> {file name after the --out prefix: sha256 of its bytes}, as
# color --out writes them with no --format: the .csv, .json and
# .report.json of each colouring (thm22 writes two, one per suffix)
OUT_DIGESTS = {
    "thm21-odd": {
        ".csv":
        "2fa77f43d624d8a1ae9aad1f787da406a4eabc9e194bd3d5d9d13a5a8c957723",
        ".json":
        "d8eafedb58d0cfc74320ae0ef24801333993fb8832b5118f9d42772df89e14eb",
        ".report.json":
        "bbc8a0c8bd8edca300a56a6a3399435bb48891c3f9f635cfa8c6f9c543905621",
    },
    "thm22": {
        "-equitable.csv":
        "742e5a9dd7b08d63d175ec27beff2da68c6e33c5b97465984c13dc3567d8241f",
        "-equitable.json":
        "a337bb4e8ce7584773fc1484805efe8cf45a076815bf2e2beedf470a544024f2",
        "-equitable.report.json":
        "c09fd97efbbc019d8da03e727d87c250ffba3a6143a655ee336ae3c919bd2fff",
        "-nsd.csv":
        "f52e3f0158a7a0ee583979291b0e9994e7b65ef02a255768ba28057ea8328454",
        "-nsd.json":
        "31ae45fee0dec6864b79faff0afd46ab7484f5904069c6511976b3b4973591d2",
        "-nsd.report.json":
        "c928920e78f1b976b7e1ae893c4d3b090992fd3a48a5d15cb422388c1b8d077d",
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def color_argv(run: str, fmt: str) -> list[str]:
    return COLOR_RUNS[run].split() + ["--format", fmt]


def test_every_method_pinned():
    methods = {argv[argv.index("--method") + 1]
               for argv in (color_argv(run, "csv") for run in COLOR_RUNS)}
    assert methods == set(COLOR_METHODS)
    assert {run for run, _fmt in COLOR_DIGESTS} == set(COLOR_RUNS)


@pytest.mark.parametrize("run,fmt", sorted(COLOR_DIGESTS))
def test_color_stdout(run, fmt, capsys):
    assert main(color_argv(run, fmt)) == EXIT_OK
    assert sha256(capsys.readouterr().out) == COLOR_DIGESTS[run, fmt]


@pytest.mark.parametrize("fmt", [None, "csv", "json"])
@pytest.mark.parametrize("run", sorted(OUT_DIGESTS))
def test_out_file_set(run, fmt, tmp_path, capsys):
    # --format F writes only the F file and the report of each colouring
    # (the dense CSV is quadratic in n); with no --format, both formats
    argv = COLOR_RUNS[run].split() + ["--out", str(tmp_path / "p")]
    assert main(argv + (["--format", fmt] if fmt else [])) == EXIT_OK
    assert capsys.readouterr().out == ""
    want = {"p" + name: digest for name, digest in OUT_DIGESTS[run].items()
            if fmt is None or name.endswith(("." + fmt, ".report.json"))}
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == want


def test_budget_that_suffices_changes_nothing(capsys):
    # the pooled search at n=22 finishes in 91 of the 150 nodes, so no
    # fallback runs and the output is the unbudgeted one
    argv = "color --method thm21-even --n 22 --k 10 --i 1 --format json"
    assert main(argv.split()) == EXIT_OK
    unbudgeted = capsys.readouterr().out
    assert main(["--budget", "150"] + argv.split()) == EXIT_OK
    assert capsys.readouterr().out == unbudgeted


def test_improper_verify_report(tmp_path, capsys):
    tc = color_power_cycle_even(18, 4, 5).coloring
    e = next(tc.edge_items())[0]
    path = tmp_path / "improper.json"
    write_coloring_json(tc.with_edge_colors({e: tc.vertex_colors[e[0]]}), path)
    assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                 "--in", str(path)]) == EXIT_VERIFICATION
    out = capsys.readouterr().out
    assert "Edge(u=0, v=1)" in out
    assert sha256(out) == IMPROPER_VERIFY_DIGEST
