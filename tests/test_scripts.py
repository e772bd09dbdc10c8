"""The paper-claims script: a tiny run prints every claim's rows against the
references the library gives, and a bad value fails in one line."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from popcountlab import InitPolicy, ProtocolId, TrialBatchSpec, harmonic_bound
from popcountlab.experiments import exact_mean

ROOT = Path(__file__).resolve().parent.parent
# sha256 of `paper_claims.py --max-n 16 --trials 200` stdout
CLAIMS_MAX_N16_TRIALS200_SHA256 = (
    "fbfa00367cf1f654cfec66c4795bc882f8a817dc0e1a1bc8f0a410235c86ee75"
)


def start_claims(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "paper_claims.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_every_claim_prints_its_rows_against_its_reference():
    # 16 is the smallest size of the n*H_n floor's rows
    claims = start_claims("--max-n", "16", "--trials", "200")
    # the exact solves take seconds: work them out while the script runs
    exact = {}
    for protocol, init, sizes in (
        (ProtocolId.FLIP, InitPolicy.ALL_ZERO, range(2, 13)),
        (ProtocolId.TIME_OPT, InitPolicy.UNIFORM_RANDOM_MARKS, range(1, 9)),
    ):
        for n in sizes:
            spec = TrialBatchSpec(protocol, n, 1, init=init)
            exact[protocol, n] = f"{float(exact_mean(spec)):.6g}"
    out, err = claims.communicate(timeout=300)
    assert claims.returncode == 0, err
    # pinned byte for byte; the table is the same for every worker count
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CLAIMS_MAX_N16_TRIALS200_SHA256
    tables = {}  # claim -> its rows, split into fields
    for line in out.splitlines():
        if not line.startswith(" "):
            rows = tables.setdefault(line, [])
        elif line.split()[0] != "n":
            rows.append(line.split())
    flip, phased, floor, naming = tables.values()
    sizes = [[int(row[0]) for row in rows] for rows in (flip, phased, floor, naming)]
    assert sizes == [list(range(2, 13)), list(range(1, 9)), [16], list(range(1, 11))]

    for n, measured, se, reference, gap, *_ in naming:
        worst = str(3 * 2 ** (int(n) - 1) - 2)
        assert (measured, se, reference, gap) == (worst, "0", worst, "=")
    for protocol, rows in ((ProtocolId.FLIP, flip), (ProtocolId.TIME_OPT, phased)):
        for n, measured, se, reference, gap in rows:
            assert reference == exact[protocol, int(n)]
            assert abs(float(gap)) <= 4
    [[n, measured, se, reference, gap, *ratio]] = floor
    assert reference == f"{float(harmonic_bound(16)):.6g}" and float(gap) > 0
    assert ratio[0] == "mean/(n*H_n)" and 3 < float(ratio[1]) < 5


def test_a_bad_value_exits_two_in_one_line(monkeypatch):
    claims = start_claims("--trials", "0")
    out, err = claims.communicate(timeout=60)
    assert claims.returncode == 2 and out == ""
    assert err.count("\n") == 1 and "--trials" in err
    # so does a bad worker count, read before the first batch
    monkeypatch.setenv("POPCOUNT_THREADS", "abc")
    claims = start_claims()
    out, err = claims.communicate(timeout=60)
    assert (claims.returncode, out) == (2, "")
    assert err == "paper_claims.py: error: POPCOUNT_THREADS must be an integer, got 'abc'\n"
