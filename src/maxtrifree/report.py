"""Structured pass/fail reports, run configuration, and the seeded RNG policy.

Reports serialize to JSON with sorted keys so that two runs with the same
RunConfig produce byte-identical output except for the elapsed_ms fields.
A check only computes its report; whoever runs it stamps elapsed_ms with
``timed``.

Randomness policy (frozen): every random draw comes from numpy's Philox
counter-based bit generator keyed by the 64-bit run seed and a per-use stream
index, so any shard can regenerate any instance independently of processing
order.  ``rng_for`` builds one such generator; ``rng_streams`` walks a block
of consecutive streams with one generator re-keyed in place, drawing what
``rng_for`` would draw for each, so each generator it yields is valid only
until the next is drawn.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

PASS = "pass"
FAIL = "fail"

#: Stream index bases for Philox keys; one block per randomized check.
STREAM_CLAIM1 = 1 << 20
STREAM_CLAIM2 = 2 << 20
STREAM_CHAIN = 3 << 20
STREAM_KR_SAMPLES = 4 << 20
STREAM_FOLKLORE_SAMPLES = 5 << 20

_MASK64 = (1 << 64) - 1


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); independent of call order."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rng_streams(seed: int, base: int, count: int) -> Iterator[np.random.Generator]:
    """Yield the generator of ``rng_for(seed, base + i)`` for i < *count*.

    It is one generator, re-keyed in place before each yield: the key becomes
    (seed, base + i), and the counter, the output buffer and the spare 32-bit
    half-word start empty, the state of a fresh ``Philox(key=...)``.  So each
    yielded generator is valid only until the next one is drawn.  A fresh
    generator per stream would pay for ``SeedSequence`` OS entropy that its
    key then overrides, several times the cost of the reset.
    """
    gen = rng_for(seed, base)
    for stream in range(base, base + count):
        key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        yield gen


@dataclass
class VerificationReport:
    """One check's outcome: status, parameters, integer counts, witnesses.

    Witness entries are graph6 strings or lists of "u-v" edge strings; a
    failing report must carry at least one witness.  Every field's type is
    checked, and ``from_dict`` passes the loaded values through unchanged,
    so a malformed report file raises ValueError instead of being coerced.
    """

    check_name: str
    status: str
    parameters: dict[str, Any]
    counts: dict[str, int]
    witnesses: list[Any]
    elapsed_ms: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.check_name, str):
            raise ValueError("check_name is not a string")
        if self.status not in (PASS, FAIL):
            raise ValueError(f"status must be {PASS!r} or {FAIL!r}")
        for name in ("parameters", "counts"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} is not an object")
        if not isinstance(self.witnesses, list):
            raise ValueError("witnesses is not a list")
        if self.status == FAIL and not self.witnesses:
            raise ValueError("failing report must carry a witness")
        for key, value in self.counts.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"count {key!r} is not an integer")
        if not isinstance(self.elapsed_ms, int) or isinstance(self.elapsed_ms, bool):
            raise ValueError("elapsed_ms is not an integer")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict[str, Any]:
        return {
            "check_name": self.check_name,
            "status": self.status,
            "parameters": self.parameters,
            "counts": self.counts,
            "witnesses": self.witnesses,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VerificationReport":
        return cls(
            check_name=data["check_name"],
            status=data["status"],
            parameters=data["parameters"],
            counts=data["counts"],
            witnesses=data["witnesses"],
            elapsed_ms=data["elapsed_ms"],
        )

    def summary_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"[{flag}] {self.check_name} ({self.elapsed_ms} ms) {keys}"


def dumps_reports(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)


def loads_reports(text: str) -> list[VerificationReport]:
    """Parse a report array; ValueError names the first entry that is not a report."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array of reports, got {type(data).__name__}")
    reports = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"report {i} is {type(entry).__name__}, not an object")
        try:
            reports.append(VerificationReport.from_dict(entry))
        except KeyError as exc:
            raise ValueError(f"report {i} lacks key {exc}") from None
        except (TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"report {i} is malformed: {exc}") from None
    return reports


def read_utf8(path) -> str:
    """The text of a UTF-8 file; bytes that are not UTF-8 raise a ValueError
    that names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def strip_timing(data: Any) -> Any:
    """Copy of parsed JSON with every elapsed_ms removed, for byte comparisons."""
    if isinstance(data, dict):
        return {k: strip_timing(v) for k, v in data.items() if k != "elapsed_ms"}
    if isinstance(data, list):
        return [strip_timing(v) for v in data]
    return data


def timed(check: Callable[[], VerificationReport]) -> VerificationReport:
    """Run a check and stamp its report's elapsed_ms with the wall time it took."""
    start = time.perf_counter()
    rep = check()
    rep.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return rep


DEFAULT_GUARDS: dict[str, int] = {
    "oracle_n": 6,         # brute-force maximal-triangle-free scan
    "enumeration_n": 9,    # backtracking enumeration / growth table
    "hujter_tuza_m": 8,    # exhaustive Hujter-Tuza verification
    "folklore_n": 12,      # full folklore family enumeration
}

#: The smallest n each guard's checks run; a guard below it leaves a check empty.
GUARD_MINIMUMS: dict[str, int] = {
    "oracle_n": 1,
    "enumeration_n": 2,    # remark3_census starts at n = 2
    "hujter_tuza_m": 1,
    "folklore_n": 4,       # the folklore census runs n = 4, 8, ...
}


@dataclass
class RunConfig:
    """Seed, shard count and size guards for a run; the suites and ``enumerate``
    read the guards, and no library function takes one."""

    seed: int = 1
    shards: int = 1
    guards: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # rng_for keys Philox with the seed's low 64 bits, so a wider seed
        # would draw another seed's instances
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be in 0..2^64-1, got {self.seed}")
        if self.shards < 1:
            raise ValueError("shards must be positive")
        unknown = set(self.guards) - set(DEFAULT_GUARDS)
        if unknown:
            raise ValueError(f"unknown guard keys: {sorted(unknown)}")
        for key, value in sorted(self.guards.items()):
            if value < GUARD_MINIMUMS[key]:
                raise ValueError(f"guard {key}={value} is below {GUARD_MINIMUMS[key]}, "
                                 f"the smallest n its checks run")
        merged = dict(DEFAULT_GUARDS)
        merged.update(self.guards)
        self.guards = merged

    def guard(self, key: str) -> int:
        return self.guards[key]
