"""Golden outputs: the SHA-256 of every scenario's CSV at a fixed seed.

The flow files that `generate` and `embed` write are pinned as well, by
the SHA-256 of their bytes concatenated in manifest order.  So are the
parameter echo and results of each case's last `report.json` (without
`wall_clock_s`, dumped with sorted keys) and everything `main` prints to
stdout over the case's calls.

Each case runs `flowmark.cli.main` from a fresh working directory with
relative paths only, so the paths some CSVs echo are the same wherever the
suite runs.  A refactor that changes any byte of any scenario's CSV fails
here; a deliberate output change updates the digest together with a note
in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flowmark.cli import EXIT_OK, main
from flowmark.mfa import read_manifest

FLOW = "[flow]\nmodel = poisson\nrate = 3.0\n"
EMPIRICAL = "[flow]\nmodel = empirical\ntable = 0.175:0.525, 0.35:0.33, 0.45:0.276\n"
WATERMARK = (
    "[watermark]\nT = 0.9\no = 0.45\no_max = 0.9\ndelta = 0.45\nn = 12\n"
    "key = 20260814\nclear_fraction = 0.5\n"
)
ATTACK = "[attack]\nT = 0.9\ndelta = 0.45\no_max = 0.9\nepsilon = 1e-5\n"
MC_FLOW = "[flow]\nmodel = poisson\nrate = 2.860787585033304\n"
# Attack inputs: the config and cli.main call that write each manifest.  On
# "sparse" the fixed-offset attack misses and the varied-offset search hits
# after a few branches; on "dense" every search ends absent.
SOURCES = {
    "emb": (
        FLOW + "\n" + WATERMARK,
        ["embed", "--config", "src.ini", "--out", "emb", "--seed", "5", "--trials", "3"],
    ),
    "sparse": (
        "[flow]\nmodel = poisson\nrate = 4.0\nduration = 4.5\n",
        ["generate", "--config", "src.ini", "--out", "sparse", "--seed", "9", "--trials", "4"],
    ),
    "dense": (
        "[flow]\nmodel = poisson\nrate = 5.0\nduration = 4.5\n",
        ["generate", "--config", "src.ini", "--out", "dense", "--seed", "13", "--trials", "4"],
    ),
}

# Each case: config files to write, then the argv of every cli.main call in
# order; the digest covers the CSV the last call writes.
CASES = {
    "generate": (
        {"gen.ini": FLOW + "duration = 4.5\n"},
        [["generate", "--config", "gen.ini", "--out", "gen", "--seed", "7", "--trials", "3"]],
        "gen/generate.csv",
    ),
    "embed": (
        {"emb.ini": FLOW + "\n" + WATERMARK},
        [["embed", "--config", "emb.ini", "--out", "emb", "--seed", "5", "--trials", "3"]],
        "emb/embed.csv",
    ),
    "detect": (
        {
            "emb.ini": FLOW + "\n" + WATERMARK,
            "det.ini": WATERMARK + "\n[experiment]\nmanifest = emb/manifest.txt\n",
        },
        [
            ["embed", "--config", "emb.ini", "--out", "emb", "--seed", "5", "--trials", "3"],
            ["detect", "--config", "det.ini", "--out", "det"],
        ],
        "det/detect.csv",
    ),
    **{
        f"attack-{method}-{source}": (
            {
                "src.ini": SOURCES[source][0],
                "atk.ini": ATTACK
                + f"\n[experiment]\nmanifest = {source}/manifest.txt\nmethod = {method}\n",
            },
            [SOURCES[source][1], ["attack", "--config", "atk.ini", "--out", "atk"]],
            "atk/attack.csv",
        )
        for method in ("fixed", "exhaustive", "bnb")
        for source in SOURCES
    },
    **{
        f"montecarlo-{method}": (
            {"mc.ini": MC_FLOW + "\n" + ATTACK + f"\n[experiment]\nk = 3\nmethod = {method}\n"},
            [["montecarlo", "--config", "mc.ini", "--out", "mc", "--seed", "3",
              "--trials", "300"]],
            "mc/montecarlo.csv",
        )
        for method in ("fixed", "exhaustive", "bnb")
    },
    "montecarlo-bnb-long": (
        {"mc.ini": MC_FLOW + "duration = 4.5\n\n" + ATTACK + "\n[experiment]\nk = 5\n"},
        [["montecarlo", "--config", "mc.ini", "--out", "mc", "--seed", "4", "--trials", "100"]],
        "mc/montecarlo.csv",
    ),
    # 15.3 s flows: about 44 packets each, so a few trials fill a draw block.
    "montecarlo-bnb-15s": (
        {"mc.ini": MC_FLOW + "duration = 15.3\n\n" + ATTACK
                   + "\n[experiment]\nk = 5\nmethod = bnb\n"},
        [["montecarlo", "--config", "mc.ini", "--out", "mc", "--seed", "8", "--trials", "300"]],
        "mc/montecarlo.csv",
    ),
    # 0.9 s flows over enough trials that the early stages draw several chunks.
    "montecarlo-bnb-blocks": (
        {"mc.ini": MC_FLOW + "\n" + ATTACK + "\n[experiment]\nk = 5\nmethod = bnb\n"},
        [["montecarlo", "--config", "mc.ini", "--out", "mc", "--seed", "11", "--trials", "2000"]],
        "mc/montecarlo.csv",
    ),
    "bounds": (
        {"b.ini": EMPIRICAL + "\n" + ATTACK},
        [["bounds", "--config", "b.ini", "--out", "b"]],
        "b/bounds.csv",
    ),
    "bounds-sweep-o_max": (
        {"b.ini": EMPIRICAL + "\n" + ATTACK + "\n[sweep]\nparam = o_max\nvalues = 0.45,0.9,1.8\n"},
        [["bounds", "--config", "b.ini", "--out", "b"]],
        "b/bounds.csv",
    ),
    "bounds-sweep-T": (
        {"b.ini": EMPIRICAL + "\n" + ATTACK + "\n[sweep]\nparam = T\nvalues = 0.625, 0.8, 0.9\n"},
        [["bounds", "--config", "b.ini", "--out", "b"]],
        "b/bounds.csv",
    ),
    # Sweeping delta moves the window T - delta, so each row reads p afresh.
    "bounds-sweep-delta": (
        {"b.ini": FLOW + "\n" + ATTACK
                  + "\n[sweep]\nparam = delta\nvalues = 0.2, 0.3, 0.45, 0.6\n"},
        [["bounds", "--config", "b.ini", "--out", "b"]],
        "b/bounds.csv",
    ),
    "bounds-sweep-epsilon": (
        {"b.ini": EMPIRICAL + "\n" + ATTACK
                  + "\n[sweep]\nparam = epsilon\nvalues = 0.5, 1e-2, 1e-9\n"},
        [["bounds", "--config", "b.ini", "--out", "b"]],
        "b/bounds.csv",
    ),
    # p = 0 needs one flow; p = 0.6 doubles to a base above 1, so no k is feasible.
    "bounds-sweep-p": (
        {"b.ini": EMPIRICAL + "\n" + ATTACK
                  + "\n[sweep]\nparam = p\nvalues = 0, 0.1, 0.276, 0.6\n"},
        [["bounds", "--config", "b.ini", "--out", "b"]],
        "b/bounds.csv",
    ),
    "paper-repro": (
        {},
        [["paper-repro", "--out", "repro", "--trials", "300"]],
        "repro/paper_repro.csv",
    ),
}

GOLDEN = {
    "attack-bnb-dense": "41526d169de9039322e9ebc5a1a2a022736daecd6e4ed433f934e3bb8e52d370",
    "attack-bnb-emb": "e04199e747add32db484a2e7a7385dfc3e587b326facf552d09390491b7775f1",
    "attack-bnb-sparse": "ebf934359e7d084dbcab9ad5a636bb00fd322e77d964aa6722b98d7dd4e7e551",
    "attack-exhaustive-dense": "6e5bbd98fc756241e34c72a1fea30fc03d5eeaa7b2a9a15399d6595258145bf7",
    "attack-exhaustive-emb": "1a91d7d5edb2412e680b1806573b902125ce9cfe864402bfad73147b4cee6062",
    "attack-exhaustive-sparse": "e5a15ddde574284f6bdeb6d58e6463a04dd532c4792da25b34c23272dadde44a",
    "attack-fixed-dense": "94f689ea3b041f274d11647b6ee40355fbfea38782aa5a4637761494466feb58",
    "attack-fixed-emb": "57741fdcb7374f576b18b1f5825f0e9376fbfc772b4ea0cafb52e3c719b07dce",
    "attack-fixed-sparse": "2e2d4380fc237605789cfce3bd8059db1e74073e5f3f82c3e1818e0e4843c713",
    "bounds": "5a6540d4426ac054092769bf354e479b9d3548e2e5e910b6debac0488d7b8670",
    "bounds-sweep-T": "37d71ebe143f74b88c1460f59de375a0e1c6ac62d9135ce5bfc14121559a37c3",
    "bounds-sweep-delta": "f2d882720d77933737bb9c4471e91018c753ab87ba6b49c939e1d32b265a1557",
    "bounds-sweep-epsilon": "7238b23fc3cdc55b1c499af6529f8416a29ab9a4b3b8d77254798dcc7db661ff",
    "bounds-sweep-o_max": "c46156e7aa11cc37c57b1ceef1db0f87d7f86b8a544fd8b9e1d4d6e17ccde749",
    "bounds-sweep-p": "3e8acdd9ce569e5cfe4ec916ae7d7a956133ca08e5c60e211a06d07d59bb5f13",
    "detect": "f2bf325611fa61061d46aee5653e8aa857b43e3da8a98c4856a00870f46b733b",
    "embed": "ef3f836568581e51320edbb13cdf5d926a55386cd7d6a8eea50bdc052e06162e",
    "generate": "166a1b779a78249cd83d2f58e609ed7c134158c403bb9ef133ecbcc2b70bd03e",
    "montecarlo-bnb": "126e6a158d17d92837fc4fbfb3cb17ce7f95df65f15496cc635ac9d000a62474",
    "montecarlo-bnb-15s": "bfe467f870e91324da30bb2f9719f7433506a4ff42b1544082a29943ff4ffa9e",
    "montecarlo-bnb-blocks": "cc426e0aa627eeee929e5f7cad4d46ae4d268ca13cca133164c58780dd0aab5a",
    "montecarlo-bnb-long": "d0196b804fd7510373d72e1a4e8977392b41aafb0a11fe8f3e4ba6f2a20307f7",
    "montecarlo-exhaustive": "126e6a158d17d92837fc4fbfb3cb17ce7f95df65f15496cc635ac9d000a62474",
    "montecarlo-fixed": "17ecb7a84e523d01508905333c27cee12bf9b0f67b3b33d02600dcb6087d1e86",
    "paper-repro": "621b6898714ed7ec71d3c2b65827cf166a5280f9491757283ca4e2fa375069e6",
}

# Cases whose flow files are pinned too: the manifest each one writes.
FLOW_MANIFESTS = {"generate": "gen/manifest.txt", "embed": "emb/manifest.txt"}

FLOW_GOLDEN = {
    "embed": "90bdffa309835cf155cd62be7b6b024d4cd0c073b3aecd579df5131c1bf4c41b",
    "generate": "e1517eef66e0eb0e8543d69e6ed7d6163df847cf7862ace7095af7a3044492a2",
}

# The last call's report.json without wall_clock_s, and the whole stdout.
REPORT_GOLDEN = {
    "attack-bnb-dense": "2eac8b9d76d50ff49d21652686883bd59017db928ef3557260612c10c952433f",
    "attack-bnb-emb": "e382de92d0d5aacaf6a372376b9ff8ba23165261de594d17e359a28b761fdedf",
    "attack-bnb-sparse": "cc4de3b9c73b0bfe0cb0dba855fb5945bd9f901074d358d08f1f1b20b97574d7",
    "attack-exhaustive-dense": "8ffb2970120a90f82ea17924e5e8e71ea533ad3c2ba828434d5390dec5be4af5",
    "attack-exhaustive-emb": "527fd8f70af48c257c62c6ce49a84b505e50044af308c551a2ece1c24d788a8d",
    "attack-exhaustive-sparse": "70213d16b4675ef957a4421f9b74ff93d03f4629e61dc2fed25aa461977dc0a8",
    "attack-fixed-dense": "d14866437172843beb29d7ce65bdd14af9036180da74973a9a56523611020056",
    "attack-fixed-emb": "61aa9ce7aa712b12d1660d6fcbf7c30e5ec72aa803c8e0535a749572b3710e8b",
    "attack-fixed-sparse": "5313b55aace162e01a53aaba12ca7dc182dbdaf9b482bac564cc405f11730484",
    "bounds": "6a7a4c5859668b4cb8a515662ac60d6d574966d0b19f9327ee8e5ed5486bcc0d",
    "bounds-sweep-T": "2b01637e35878fd7fdf62eaeaf36d7638daa22b058eca53df6038925708502de",
    "bounds-sweep-delta": "9e14e96c6ecd9bbb96dc0d01f7c2b6e8f6a63988184ae1d1dd7e511a257401bf",
    "bounds-sweep-epsilon": "e136cb737cdccfe405b29c214bd0ac2e9853e3fbb5d80b66573c52f988c8dc4e",
    "bounds-sweep-o_max": "0323bb45997d081b7ab59c05708ecd84571919734dd1e9161a107c9fefa2b355",
    "bounds-sweep-p": "c5e9c89a4291716cc8f430ffdc2c796afa3daf02daa2ab0abffe1315542eacdd",
    "detect": "c095b897464e8e3ed5425b3036c70b0527183d1c8ef4a09181f3a4a02fe97d9a",
    "embed": "e9fe110265380fefffc6e76c3eb142aed2d172893c95958249868784acb18064",
    "generate": "08c360ec9939990cced3ba5176bbca2a634444536493b6a7c6833a0771389708",
    "montecarlo-bnb": "b6f5fb6a442c17f5acff41e4410a711b0aafda0498524fb6c9b2be81ad58714a",
    "montecarlo-bnb-15s": "1cc06e3e35afa64fbcb0b46957508d7c696cc6678847a34bfcf7b9c4bfd7cf37",
    "montecarlo-bnb-blocks": "c79c7bc384c943a2452ab79913e86daa917393bdb7585bba7e49b50bb4dfddb7",
    "montecarlo-bnb-long": "c21f8e773c0f4bedbddd670a8f3241ed04e793f5d1ad6de7e36151b490e58bf7",
    "montecarlo-exhaustive": "8ee8afd6f663270df5e99afeff21c677310e2748142218641f52e054eee986d5",
    "montecarlo-fixed": "64a74f364469d2368337e303a92a2337c405e85553fde2a628c27df65ccfc2f7",
    "paper-repro": "bc0aae1a7c3076431dfce19383cdec65b41e3533d77420fb6852e1773e354337",
}
STDOUT_GOLDEN = {
    "attack-bnb-dense": "2cac29cb70327bfd8c82baaf90dcfbeb2413a46a44e420f03e4f701e1b439b26",
    "attack-bnb-emb": "62ac101d48c1c4104361350395920940db3feecff5adf90dae5c71deb466e4c3",
    "attack-bnb-sparse": "12b0f203b493ed8fcaa415b047357af69a56f74c9e2806858a8e8770762876f5",
    "attack-exhaustive-dense": "3cea135e0b8a6cec9e30bc67bb66c26a94be21e39373277616871584dee9a032",
    "attack-exhaustive-emb": "683615c79a5bd19f83ae65fd1341361bbd0edb6eb1c68d9b463a7652caabf5a4",
    "attack-exhaustive-sparse": "b752860dd1c04fbc9e6fef211f25ab67a72a99f01bd22096d61cfee3d75237eb",
    "attack-fixed-dense": "355316481f590fd1be7b4de920978c33021fa5bf131c0717e8d3c3a773af41b8",
    "attack-fixed-emb": "b89aff612d1c2bc95768e4b42e0fe26b0c54cbce6c18d83de2c61e562e7e8d2c",
    "attack-fixed-sparse": "f1e48053dd8d436729070038c4883eaffc0224535b18afabfa9f408cba6bb684",
    "bounds": "980c47e218ef92254d8a5574bfad062c279d1fb18ad2282389fcea5b86917510",
    "bounds-sweep-T": "980c47e218ef92254d8a5574bfad062c279d1fb18ad2282389fcea5b86917510",
    "bounds-sweep-delta": "c05266c53c63e206f7b494039f894bad8baa58a7108fba7555be37589916579d",
    "bounds-sweep-epsilon": "980c47e218ef92254d8a5574bfad062c279d1fb18ad2282389fcea5b86917510",
    "bounds-sweep-o_max": "980c47e218ef92254d8a5574bfad062c279d1fb18ad2282389fcea5b86917510",
    "bounds-sweep-p": "980c47e218ef92254d8a5574bfad062c279d1fb18ad2282389fcea5b86917510",
    "detect": "7c3a681b99302ad15844afa9550733e13f53da6520a86d1303076cd2cf23e0ca",
    "embed": "87d99835acebbad4690edb361bc722e26343728ca654fbe6bb7d61e6543aba5e",
    "generate": "8296eb7738a1581765e66dffb7dd90b186df19447862739a11b05f0129ef30ef",
    "montecarlo-bnb": "e6891c550016b2e1a4fab35dacae3093f7d57a102a81f07d2b1884593b62ad42",
    "montecarlo-bnb-15s": "b060e78a625f289cfc056dd7bacc0c1ca857200a19a31db3127033afe4e78417",
    "montecarlo-bnb-blocks": "d0ec8ccc238c49d315e781ad5585268a3e05c30668e6e96b35d58eabaa4a5f78",
    "montecarlo-bnb-long": "50b344ee7f834aa29cb089823fc0b19558119afdac8c0105fe80f627d8cc5f79",
    "montecarlo-exhaustive": "e6891c550016b2e1a4fab35dacae3093f7d57a102a81f07d2b1884593b62ad42",
    "montecarlo-fixed": "daf2067807b260256055664493e36e143d4b21c318a89a935c60d7b413540c7a",
    "paper-repro": "acfdabbbbcb5d6b82bf53faca00da9a843b32c839aaca72191c4d68c86eaba9b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_digest(case: str) -> str:
    """Run one case in the current directory and hash the CSV it writes."""
    configs, calls, csv_path = CASES[case]
    for name, text in configs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    for argv in calls:
        assert main(argv) == EXIT_OK, argv
    with open(csv_path, "rb") as fh:
        return sha256(fh.read())


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_matches_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert csv_digest(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(FLOW_MANIFESTS))
def test_flow_files_match_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    csv_digest(case)
    digest = hashlib.sha256()
    for entry in read_manifest(FLOW_MANIFESTS[case]):
        digest.update(entry.read_bytes())
    assert digest.hexdigest() == FLOW_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_and_stdout_match_golden_digest(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    csv_digest(case)
    stdout = capsys.readouterr().out
    report = json.loads((Path(CASES[case][2]).parent / "report.json").read_text())
    del report["wall_clock_s"]
    assert sha256(json.dumps(report, sort_keys=True).encode()) == REPORT_GOLDEN[case]
    assert sha256(stdout.encode()) == STDOUT_GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES) == set(REPORT_GOLDEN) == set(STDOUT_GOLDEN)
    assert set(FLOW_GOLDEN) == set(FLOW_MANIFESTS)
