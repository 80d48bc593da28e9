"""Golden outputs: the sha256 of CLI output on fixed inputs.

Pins the ``classify`` JSON (without its ``timings``), the ``plotdata`` CSV
and the ``fuzz`` summaries, plus one digest over the ``classify`` JSON of a
seeded corpus and one over the class table of the census boxes of
``tests/test_census.py``, so a change that must leave the output alone is
checked byte for byte.  The module does not need pytest:
``PYTHONPATH=src python tests/test_golden.py`` exits 1 and names every
output whose digest changed.
"""

import contextlib
import hashlib
import io
import json
import sys

from shapiro12.cli import main
from shapiro12.harness import FIXTURES, FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import format_polynomial
from test_census import census_table

# (10x - 3)(3x + 1)(x^2 + 1) has an event at 3/10, on a -3:3/41 grid point;
# 2,-6,9 is a Gamma11 case with p0 = 1/3. Neither rational is dyadic.
INPUTS = (*FIXTURES.values(), "1/2,-3/7,5/3,0,2/9", "16,32,24,8,1", "4,0,-4,0,1", "1,-4,6,-4,1",
          "-3,1,27,1,30", "2,-6,9")
PLOT_ARGS = ("--range", "-3:3", "--samples", "41")
# Grid points on cancelled multiple roots of p, which are no event of pp:
# x = 1, a double root of (x - 1)^2 (x^2 + 1), with K = 2; x = 0, a fourfold
# root of x^4 (x^2 + 1) and a rational breakaway, with K = 4/3.
PLOT_COMMANDS = (
    ("plotdata", "1,-2,2,-2,1", "--range", "-1:3", "--samples", "5"),
    ("plotdata", "0,0,0,0,1,0,1", "--range", "-2:2", "--samples", "5"),
)
FUZZ_COMMANDS = (
    ("fuzz", "--seed", "7", "--cases", "500"),
    ("fuzz", "--seed", "7", "--cases", "500", "--degrees", "2:8", "--bound", "12",
     "--strategy", "uniform"),
    ("fuzz", "--seed", "7", "--cases", "300", "--degrees", "2:8", "--bound", "12",
     "--strategy", "positive_only"),
)

# A seeded corpus pinned by one digest over its classify reports. The
# targeted stream is read at every seventh index, so its tiers reach degree
# 8; the rational inputs are non-monic, some with repeated real or complex
# factors.
CORPUS_STREAMS = (
    (Strategy.POSITIVE_ONLY, (4, 12), range(50)),
    (Strategy.UNIFORM, (2, 16), range(50)),
    (Strategy.TARGETED, (4, 8), range(0, 280, 7)),
)
CORPUS_RATIONAL = ("3/4,0,1/3", "-5/2,1/7,3,2/5,-1/9,0,-4/3", "7/3,-2,5/6,-1/4,1/2",
                   "3/7,-6/7,3/7", "5/3,0,10/3,0,5/3", "-2/9,4/9,-8/9,4/9,-2/9,0,-1/9",
                   "1/6,1/3,1/2,1/3,1/6", "9/5,-12/5,22/5,-12/5,9/5")

GOLDEN = {
    "classify -1,0,1": "c399fb5ca72e911fb7372c877a34acc62b5d1d05f5ec2f079b3df89cdab800aa",
    "plotdata -1,0,1 --range -3:3 --samples 41": "d5554b94623778d02053f0f3d1a389b198bd37dea9486f2f74e80be6ec466ae5",
    "classify 2,0,-2,0,1": "f0c55f4c6690d9511844bb95a259af8f331098fcc74b681bdf698a5bde0407a4",
    "plotdata 2,0,-2,0,1 --range -3:3 --samples 41": "8fc8dc3f3067873410772f908a2286e74cf2f4f8647c6b6ac7186e9bbff4b561",
    "classify 1,0,0,0,1": "d631f3f469dbdca58bf6cb104e30ba4378e97c077bdc26850520f5b1f5942cbc",
    "plotdata 1,0,0,0,1 --range -3:3 --samples 41": "a197e672c74c5977bb4a08367e91fb114b3dd86f98d2f8363260012001b327bc",
    "classify 1,0,1": "a0ab5b5697a0d8d2b20a45b1e56756b43641035e816c9b2f2d45d4b2b47605b6",
    "plotdata 1,0,1 --range -3:3 --samples 41": "0790413f24551cea4e142a8763ab991639a4032902bc58c45f41be9a79f8cfac",
    "classify 11,-6,4,-3,1": "40e99ea3fa1553bb7b919877e4de12028ed3208ea283a97a3c3d696430023fd4",
    "plotdata 11,-6,4,-3,1 --range -3:3 --samples 41": "ed2cc369b406d288fe000c2a65bbdc057ea2611de5c9ae7931c471a6670ef0a1",
    "classify 6,-6,4,-3,1": "683d7736624f6037285426cf3d3d96b1efacbeea179bc0cf6bc0be489d6bd2a5",
    "plotdata 6,-6,4,-3,1 --range -3:3 --samples 41": "7a44d86bad6e3dc69f64eed03d09fb69e2fd4b67e5446d40ca176e5d8be956dd",
    "classify 2,0,6,-4,1": "5ad2b2019a5c8a909af062b8556b2408068d606d8a4a15a5ce21eb73a48d23a0",
    "plotdata 2,0,6,-4,1 --range -3:3 --samples 41": "b5d090e29b50ec726111a46e61806e389317c5251b4d279dc609baf6f7cdb1c2",
    "classify 9,-8,6,-4,1": "2aec030f53201200cccea3b736c2f4a7eb9417f871407d79157417c518d4d2d7",
    "plotdata 9,-8,6,-4,1 --range -3:3 --samples 41": "e3c646b95633a3a61f4fcad3a85c11aa3e996d72aeefd868d35200f73b714e1d",
    "classify 100,0,84,0,-15,0,1": "0171128b27053bab5e655067f28ced15af8ecdf4838200cdae603e6b6d4e86e0",
    "plotdata 100,0,84,0,-15,0,1 --range -3:3 --samples 41": "ccc0451dbb729de27aa99f35f63e95608d39aa68f8bc9ee6b6d2089fd1b7f7b2",
    "classify 1/2,-3/7,5/3,0,2/9": "47bdc08e140b3efc3173b7aa1b971016544ce828483405ca7bd6155c07a69992",
    "plotdata 1/2,-3/7,5/3,0,2/9 --range -3:3 --samples 41": "463d3db50e0507b0e78cbe56480dfb4ec94534fec92cd2ba7fc28bab05756cdb",
    "classify 16,32,24,8,1": "08912db5e4ae21154d4c3b05b684dd31853a563c7ab1c3402922a3ea33246337",
    "plotdata 16,32,24,8,1 --range -3:3 --samples 41": "e180e0dd98b0edfa6f3fa53c225878d9afa78395489e9f19837400235d40c28b",
    "classify 4,0,-4,0,1": "dd76a0fc39a5fb4c2d59ce71a9620d9c6ce398260fd8119f2ca45b1d3f0282b2",
    "plotdata 4,0,-4,0,1 --range -3:3 --samples 41": "e2bc79cd30cf536a1917af828e35eb1fd323cfdd468122521e8810fa50fac858",
    "classify 1,-4,6,-4,1": "2e782d19aed18238930e50d5b9bcfd46497107a72658b316997c102bcf5841db",
    "plotdata 1,-4,6,-4,1 --range -3:3 --samples 41": "e180e0dd98b0edfa6f3fa53c225878d9afa78395489e9f19837400235d40c28b",
    "classify -3,1,27,1,30": "ceb87edc9db41b40a36ad4135c2793a3bd9d95993f1a3e2d2c57aadfcc31e2a7",
    "plotdata -3,1,27,1,30 --range -3:3 --samples 41": "0f95ae9a9390b3f00191063d6a2314fce5194f99e7c3d614ff530c3d8dec0ea1",
    "classify 2,-6,9": "dae60f252efcbf28917e80dcb1006e27c5c4e36dda8c0ab56dec801ade5c7508",
    "plotdata 2,-6,9 --range -3:3 --samples 41": "2662d397e8e5fe5fae42ef0f787b553fb272168fc43837c728dba73c198c7520",
    "plotdata 1,-2,2,-2,1 --range -1:3 --samples 5": "ffda0748a4fe0e24435abda7431ee4f96da1aa2d3101bb3a5493bfba35d787c4",
    "plotdata 0,0,0,0,1,0,1 --range -2:2 --samples 5": "cb66b9ba4ae636baef9afacd9f28f1405f71c088fa5738ba34f728b2735d4f2d",
    "fuzz --seed 7 --cases 500": "7977bb2af8c0a0e72d102e778cf773710f3c919fdc15f415d5596d2d988e57b1",
    "fuzz --seed 7 --cases 500 --degrees 2:8 --bound 12 --strategy uniform": "7977bb2af8c0a0e72d102e778cf773710f3c919fdc15f415d5596d2d988e57b1",
    "fuzz --seed 7 --cases 300 --degrees 2:8 --bound 12 --strategy positive_only": "6df193e875523b87036beceff2e231f220a39a9617830612f64b1403b8c729cd",
}

CORPUS_GOLDEN = "9f11ae29b8e5753a4b43728b5eafdc97fc9f6aed23925d6fde62d42e40a64531"

CENSUS_GOLDEN = "3c1f000858334752732fef66ef76ee012f4d8bbdaf6a6d21c568c5a78ccef6b8"


def _run(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def _outputs():
    for text in INPUTS:
        report = json.loads(_run(("classify", text)))
        del report["timings"]
        yield f"classify {text}", json.dumps(report, indent=2)
        argv = ("plotdata", text, *PLOT_ARGS)
        yield " ".join(argv), _run(argv)
    for argv in PLOT_COMMANDS + FUZZ_COMMANDS:
        yield " ".join(argv), _run(argv)


def digests() -> dict[str, str]:
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in _outputs()}


def corpus_texts() -> list[str]:
    texts = []
    for strategy, degrees, indices in CORPUS_STREAMS:
        config = FuzzConfig(seed=5, cases=0, degree_range=degrees, coeff_bound=12,
                            strategy=strategy)
        texts += [format_polynomial(random_polynomial(config, i)) for i in indices]
    return texts + list(CORPUS_RATIONAL)


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for text in corpus_texts():
        report = json.loads(_run(("classify", text)))
        del report["timings"]
        digest.update(json.dumps(report, indent=2).encode())
    return digest.hexdigest()


def census_digest() -> str:
    return hashlib.sha256(census_table().encode()).hexdigest()


def test_cli_outputs_match_golden_digests():
    assert digests() == GOLDEN


def test_corpus_classify_reports_match_golden_digest():
    assert corpus_digest() == CORPUS_GOLDEN


def test_census_class_table_matches_golden_digest():
    assert census_digest() == CENSUS_GOLDEN


if __name__ == "__main__":
    got = digests()
    changed = [key for key in got.keys() | GOLDEN.keys() if got.get(key) != GOLDEN.get(key)]
    for key in sorted(changed):
        print(f"changed: {key}")
    print(f"{len(got) - len(changed)} of {len(GOLDEN)} golden outputs match")
    corpus_changed = corpus_digest() != CORPUS_GOLDEN
    print(f"corpus digest {'changed' if corpus_changed else 'matches'}")
    census_changed = census_digest() != CENSUS_GOLDEN
    print(f"census digest {'changed' if census_changed else 'matches'}")
    sys.exit(1 if changed or corpus_changed or census_changed else 0)
