"""Workloads of the lawson-bipolar benchmark and the oracles that check them.

A workload is a list of CLI invocations made from the seed alone.  Every
output is checked here without importing ``lawson_bipolar``: the admissible
pairs and the extremal-rank formula are recomputed from ``(r, k)``, each
rank report is compared with its row of a stored reference table, and mesh
rows are parsed and tested for unit norm.

The seed changes no workload's cost: rank-sweep is the whole r <= 8 table
for every seed, verify-battery runs its fixed battery in an order drawn
from the seed, and mesh-export draws its two pairs, whose cost depends on
the grid and the format alone.

Operations (the unit of ``attempted`` and ``failed``): one rank report, one
verify report, one mesh file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
RANK_REFERENCE = HERE / "ranks_r8.csv"

R_MAX = 8
MESH_GRID = 256
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    """One ``python -m lawson_bipolar.cli`` call and the file it writes."""

    argv: tuple[str, ...]
    out: str
    kind: str          # "rank", "verify" or "mesh"
    r: int = 0
    k: int = 0
    fmt: str = ""


def admissible_pairs(r_max: int = R_MAX) -> list[tuple[int, int]]:
    """Coprime (r, k) with 0 < k < r <= r_max, in lexicographic order."""
    return [(r, k) for r in range(2, r_max + 1) for k in range(1, r)
            if math.gcd(r, k) == 1]


def rank_formula(r: int, k: int) -> int:
    """Extremal rank by parity class: 4r-2 (rk even), 2r-2 (rk = 1 mod 4),
    r-2 (rk = 3 mod 4, the Klein bottles)."""
    rk = r * k
    if rk % 2 == 0:
        return 4 * r - 2
    return 2 * r - 2 if rk % 4 == 1 else r - 2


#: Klein bottle, rk = 1 mod 4, even rk giving (n, m) = (9, 7), and the flat
#: (n, m) = (13, 1) profile of the pair (r, r-1)
VERIFY_BATTERY = ((3, 1), (5, 1), (8, 1), (7, 6))


def _verify_pairs(seed: int) -> list[tuple[int, int]]:
    """The battery, in an order drawn from the seed.  The pairs stay fixed
    because a verify run costs from 1.3 to 2.8 s by pair, and a battery
    drawn per seed would spread the benchmark's runs by its own choice."""
    pairs = list(VERIFY_BATTERY)
    if seed != 0:
        random.Random(seed).shuffle(pairs)
    return pairs


def _mesh_pairs(seed: int) -> list[tuple[int, int]]:
    if seed == 0:
        return [(2, 1), (5, 2)]
    return random.Random(seed).sample(admissible_pairs(), 2)


def invocations(workload: str, seed: int) -> list[Invocation]:
    if workload == "rank-sweep":
        return [Invocation(("rank", "--r", str(r), "--k", str(k),
                            "--out", f"rank_{r}_{k}.json"),
                           f"rank_{r}_{k}.json", "rank", r, k)
                for r, k in admissible_pairs()]
    if workload == "verify-battery":
        return [Invocation(("verify", "--r", str(r), "--k", str(k),
                            "--out", f"verify_{r}_{k}.json"),
                           f"verify_{r}_{k}.json", "verify", r, k)
                for r, k in _verify_pairs(seed)]
    if workload == "mesh-export":
        (r1, k1), (r2, k2) = _mesh_pairs(seed)
        return [Invocation(("immerse", "--r", str(r), "--k", str(k),
                            "--grid", str(MESH_GRID), "--format", fmt,
                            "--out", f"mesh_{r}_{k}.{fmt}"),
                           f"mesh_{r}_{k}.{fmt}", "mesh", r, k, fmt)
                for (r, k), fmt in [((r1, k1), "csv"), ((r2, k2), "json")]]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# oracles: one verdict per operation
# ---------------------------------------------------------------------------

def check(inv: Invocation, path: Path, exit_code: int, digests: dict) -> bool:
    """Check one invocation's output.  ``digests`` maps an output name to
    (sha256, verdict) from an earlier run in the same benchmark run, so a
    repeated output must be byte-identical to the first one."""
    if exit_code != 0 or not path.is_file():
        return False
    data = path.read_bytes()
    if inv.kind == "rank":
        return _check_rank(data, inv.r, inv.k)
    if inv.kind == "verify":
        return _check_verify(data, inv.r, inv.k)
    digest = hashlib.sha256(data).hexdigest()
    if inv.out not in digests:
        digests[inv.out] = (digest, _check_mesh(data, inv))
    first_digest, verdict = digests[inv.out]
    return verdict and digest == first_digest


def _reference_rows() -> dict[tuple[int, int], dict[str, str]]:
    """The stored r <= 8 rank table, by pair; its columns are those of
    ``rank --sweep 8``."""
    with open(RANK_REFERENCE, newline="") as fh:
        return {(int(row["r"]), int(row["k"])): row for row in csv.DictReader(fh)}


def _check_rank(data: bytes, r: int, k: int) -> bool:
    """The report must carry the formula rank and multiplicity 5, and
    agree field by field with the pair's reference row, the functional to
    all 17 digits."""
    ref = _reference_rows().get((r, k))
    if ref is None:
        return False
    try:
        doc = json.loads(data)
        fields = {
            "n": str(doc["params"]["n"]), "m": str(doc["params"]["m"]),
            "topology": doc["topology"], "parity_class": doc["parity_class"],
            "rank_i": str(doc["rank_i"]), "rank_formula": doc["rank_formula"],
            "multiplicity": str(doc["multiplicity"]),
            "lambda_functional": format(float(doc["lambda_functional"]), ".17g"),
        }
        return (doc["params"]["r"] == r and doc["params"]["k"] == k
                and doc["rank_i"] == rank_formula(r, k)
                and doc["multiplicity"] == 5
                and all(ref[key] == val for key, val in fields.items()))
    except (ValueError, KeyError, TypeError):
        return False


def _check_verify(data: bytes, r: int, k: int) -> bool:
    try:
        doc = json.loads(data)
        return (doc["passed"] is True
                and doc["params"]["r"] == r and doc["params"]["k"] == k
                and doc["rank_i"] == rank_formula(r, k))
    except (ValueError, KeyError, TypeError):
        return False


def _check_mesh(data: bytes, inv: Invocation) -> bool:
    import numpy as np

    try:
        if inv.fmt == "csv":
            first, header = data.split(b"\n", 2)[:2]
            if not first.startswith(f"# r={inv.r} k={inv.k} ".encode()):
                return False
            if header != b"u,v,x1,x2,x3,x4,x5":
                return False
            rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=2, ndmin=2)
        else:
            doc = json.loads(data)
            if doc["params"]["r"] != inv.r or doc["params"]["k"] != inv.k:
                return False
            rows = np.array(doc["rows"], dtype=float)
    except (ValueError, KeyError, TypeError):
        return False
    if rows.shape != (MESH_GRID * MESH_GRID, 7):
        return False
    norm_err = np.abs(np.linalg.norm(rows[:, 2:], axis=1) - 1.0)
    return bool(np.all(norm_err <= UNIT_NORM_TOL))
