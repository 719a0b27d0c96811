"""Golden outputs: the SHA-256 of every scenario's CSV at a fixed seed.

The flow files that `generate` and `embed` write are pinned as well, by
the SHA-256 of their bytes concatenated in manifest order.

Each case runs `flowmark.cli.main` from a fresh working directory with
relative paths only, so the paths some CSVs echo are the same wherever the
suite runs.  A refactor that changes any byte of any scenario's CSV fails
here; a deliberate output change updates the digest together with a note
in CHANGES.md.
"""

import hashlib

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
    # 0.9 s flows over enough trials to span many draw blocks.
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
    "bounds-sweep-o_max": "c46156e7aa11cc37c57b1ceef1db0f87d7f86b8a544fd8b9e1d4d6e17ccde749",
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


def csv_digest(case: str) -> str:
    """Run one case in the current directory and hash the CSV it writes."""
    configs, calls, csv_path = CASES[case]
    for name, text in configs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    for argv in calls:
        assert main(argv) == EXIT_OK, argv
    with open(csv_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)
    assert set(FLOW_GOLDEN) == set(FLOW_MANIFESTS)
