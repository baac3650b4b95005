"""Per-rule checker tests: every rule fires on a violating fixture and stays
silent on the compliant twin.

Fixtures are inline sources linted through :func:`repro.analysis.lint_source`
with fake ``src/repro/...`` paths, so the path-scoped rules see the same
package-relative paths they would in the real tree.
"""

from __future__ import annotations

import pytest

from repro.analysis import lint_source


def rules_at(path: str, source: str, only=()):
    """The distinct rule ids found in ``source`` linted as ``path``."""
    return sorted({finding.rule for finding in
                   lint_source(path, source, rules=only)})


# --------------------------------------------------------------------------- #
# DET01 — unseeded global RNG
# --------------------------------------------------------------------------- #
def test_det01_fires_on_global_random_call():
    source = "import random\nvalue = random.random()\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET01"]) == ["DET01"]


def test_det01_fires_on_from_import_alias():
    source = "from random import choice as pick\nitem = pick([1, 2])\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET01"]) == ["DET01"]


def test_det01_fires_on_numpy_global_rng():
    source = "import numpy\nvalue = numpy.random.rand(3)\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET01"]) == ["DET01"]


def test_det01_silent_on_seeded_generator():
    source = ("import random\n"
              "rng = random.Random(7)\n"
              "value = rng.random()\n")
    assert rules_at("src/repro/sim/x.py", source, ["DET01"]) == []


def test_det01_silent_on_numpy_default_rng():
    source = ("import numpy\n"
              "rng = numpy.random.default_rng(7)\n"
              "value = rng.random()\n")
    assert rules_at("src/repro/sim/x.py", source, ["DET01"]) == []


# --------------------------------------------------------------------------- #
# DET02 — wall-clock reads
# --------------------------------------------------------------------------- #
def test_det02_fires_on_time_time():
    source = "import time\nstamp = time.time()\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET02"]) == ["DET02"]


def test_det02_fires_on_aliased_perf_counter():
    source = "from time import perf_counter as tick\nstamp = tick()\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET02"]) == ["DET02"]


def test_det02_fires_on_datetime_now():
    source = "import datetime\nstamp = datetime.datetime.now()\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET02"]) == ["DET02"]


def test_det02_out_of_scope_in_cli():
    source = "import time\nstamp = time.time()\n"
    assert rules_at("src/repro/cli.py", source, ["DET02"]) == []


def test_det02_silent_on_simulated_clock():
    source = "def advance(clock: float, dt: float) -> float:\n    return clock + dt\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET02"]) == []


# --------------------------------------------------------------------------- #
# DET03 — set iteration order
# --------------------------------------------------------------------------- #
def test_det03_fires_on_for_over_set_literal():
    source = "for item in {3, 1, 2}:\n    print(item)\n"
    assert rules_at("src/repro/core/x.py", source, ["DET03"]) == ["DET03"]


def test_det03_fires_on_list_of_set_call():
    source = "items = list(set([3, 1, 2]))\n"
    assert rules_at("src/repro/core/x.py", source, ["DET03"]) == ["DET03"]


def test_det03_fires_on_comprehension_over_set_union():
    source = "out = [x for x in {1} | {2}]\n"
    assert rules_at("src/repro/updates/x.py", source, ["DET03"]) == ["DET03"]


def test_det03_silent_when_sorted():
    source = "for item in sorted({3, 1, 2}):\n    print(item)\n"
    assert rules_at("src/repro/core/x.py", source, ["DET03"]) == []


def test_det03_out_of_scope_outside_decision_packages():
    source = "for item in {3, 1, 2}:\n    print(item)\n"
    assert rules_at("src/repro/datasets/x.py", source, ["DET03"]) == []


# --------------------------------------------------------------------------- #
# DET04 — id()/hash() ordering keys
# --------------------------------------------------------------------------- #
def test_det04_fires_on_key_id():
    source = "out = sorted(items, key=id)\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET04"]) == ["DET04"]


def test_det04_fires_on_lambda_hash_key():
    source = "best = min(items, key=lambda item: (item.rank, hash(item)))\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET04"]) == ["DET04"]


def test_det04_fires_on_sort_method():
    source = "items.sort(key=lambda item: id(item))\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET04"]) == ["DET04"]


def test_det04_silent_on_domain_key():
    source = "out = sorted(items, key=lambda item: item.object_id)\n"
    assert rules_at("src/repro/sim/x.py", source, ["DET04"]) == []


# --------------------------------------------------------------------------- #
# FLT01 — exact float equality
# --------------------------------------------------------------------------- #
def test_flt01_fires_on_float_literal_equality():
    source = "flag = area == 0.0\n"
    assert rules_at("src/repro/sim/x.py", source, ["FLT01"]) == ["FLT01"]


def test_flt01_fires_on_division_inequality():
    source = "flag = ratio != total / count\n"
    assert rules_at("src/repro/sim/x.py", source, ["FLT01"]) == ["FLT01"]


def test_flt01_silent_on_integer_equality():
    source = "flag = count == 0\n"
    assert rules_at("src/repro/sim/x.py", source, ["FLT01"]) == []


def test_flt01_silent_on_epsilon_comparison():
    source = "flag = abs(area - expected) <= 1e-9\n"
    assert rules_at("src/repro/sim/x.py", source, ["FLT01"]) == []


# --------------------------------------------------------------------------- #
# STM01 — state_dict coverage
# --------------------------------------------------------------------------- #
_STM01_VIOLATION = '''
class Tracker:
    __slots__ = ("clock", "hits", "window")

    def state_dict(self) -> dict:
        return {"clock": self.clock, "hits": self.hits}
'''

_STM01_COMPLIANT = '''
class Tracker:
    __slots__ = ("clock", "hits", "window")

    def state_dict(self):
        return {"clock": self.clock, "hits": self.hits,
                "window": list(self.window)}
'''

_STM01_STUB = '''
class Tracker:
    __slots__ = ("clock", "hits")

    def state_dict(self):
        raise NotImplementedError("no snapshots")
'''


def test_stm01_fires_on_missing_field():
    findings = lint_source("src/repro/sim/x.py", _STM01_VIOLATION,
                           rules=["STM01"])
    assert [f.rule for f in findings] == ["STM01"]
    assert "window" in findings[0].message


def test_stm01_silent_when_all_fields_captured():
    assert rules_at("src/repro/sim/x.py", _STM01_COMPLIANT, ["STM01"]) == []


def test_stm01_silent_on_raising_stub():
    assert rules_at("src/repro/sim/x.py", _STM01_STUB, ["STM01"]) == []


def test_stm01_reads_dataclass_fields():
    source = '''
from dataclasses import dataclass

@dataclass
class Counter:
    ticks: int
    drops: int

    def state_dict(self):
        return {"ticks": self.ticks}
'''
    findings = lint_source("src/repro/sim/x.py", source, rules=["STM01"])
    assert [f.rule for f in findings] == ["STM01"]
    assert "drops" in findings[0].message


def test_stm01_private_field_matches_public_key():
    source = '''
class Window:
    __slots__ = ("_entries",)

    def state_dict(self):
        return {"entries": list(self._entries)}
'''
    assert rules_at("src/repro/sim/x.py", source, ["STM01"]) == []


# --------------------------------------------------------------------------- #
# SLT01 — hot-path dataclass slots
# --------------------------------------------------------------------------- #
_SLT01_VIOLATION = '''
from dataclasses import dataclass

@dataclass
class Cost:
    bytes_down: int = 0
'''

_SLT01_COMPLIANT = '''
from dataclasses import dataclass

@dataclass(frozen=True, slots=True)
class Cost:
    bytes_down: int = 0
'''


def test_slt01_fires_in_hot_package():
    assert rules_at("src/repro/core/x.py", _SLT01_VIOLATION,
                    ["SLT01"]) == ["SLT01"]


def test_slt01_silent_with_dataclass_slots():
    assert rules_at("src/repro/core/x.py", _SLT01_COMPLIANT, ["SLT01"]) == []


def test_slt01_silent_with_literal_slots_kwarg():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(slots=True)\n"
              "class Cost:\n"
              "    bytes_down: int = 0\n")
    assert rules_at("src/repro/geometry/x.py", source, ["SLT01"]) == []


def test_slt01_accepts_only_a_literal_slots_true():
    for argument in ("**SLOTS", "slots=False", "slots=SLOTS"):
        source = ("from dataclasses import dataclass\n"
                  f"@dataclass({argument})\n"
                  "class Cost:\n"
                  "    bytes_down: int = 0\n")
        assert rules_at("src/repro/core/x.py", source,
                        ["SLT01"]) == ["SLT01"], argument


def test_slt01_out_of_scope_outside_hot_packages():
    assert rules_at("src/repro/sim/x.py", _SLT01_VIOLATION, ["SLT01"]) == []


# --------------------------------------------------------------------------- #
# TYP01 — annotations in strict packages
# --------------------------------------------------------------------------- #
def test_typ01_fires_on_unannotated_function():
    source = "def scale(value):\n    return value * 2\n"
    findings = lint_source("src/repro/rtree/x.py", source, rules=["TYP01"])
    assert {f.rule for f in findings} == {"TYP01"}
    messages = " ".join(f.message for f in findings)
    assert "value" in messages and "return" in messages


def test_typ01_silent_on_annotated_function():
    source = "def scale(value: float) -> float:\n    return value * 2\n"
    assert rules_at("src/repro/rtree/x.py", source, ["TYP01"]) == []


def test_typ01_ignores_self_and_cls():
    source = ('class Box:\n'
              '    def area(self) -> float:\n'
              '        return 1.0\n'
              '    @classmethod\n'
              '    def unit(cls) -> "Box":\n'
              '        return cls()\n')
    assert rules_at("src/repro/rtree/x.py", source, ["TYP01"]) == []


def test_typ01_out_of_scope_outside_strict_packages():
    source = "def scale(value):\n    return value * 2\n"
    assert rules_at("src/repro/experiments/x.py", source, ["TYP01"]) == []


# --------------------------------------------------------------------------- #
# DUR01 — raw writable open() on a durable path
# --------------------------------------------------------------------------- #
def test_dur01_fires_on_writable_open_in_storage():
    source = 'with open("out.bin", "wb") as f:\n    f.write(b"x")\n'
    assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == ["DUR01"]


def test_dur01_fires_on_append_and_update_modes():
    for mode in ("ab", "r+b", "w", "a", "x", "r+"):
        source = f'handle = open("out.bin", "{mode}")\n'
        assert rules_at("src/repro/storage/x.py", source,
                        ["DUR01"]) == ["DUR01"], mode


def test_dur01_fires_on_keyword_mode_and_io_open():
    source = 'handle = open("out.bin", mode="wb")\n'
    assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == ["DUR01"]
    source = 'import io\nhandle = io.open("out.bin", "wb")\n'
    assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == ["DUR01"]
    source = 'import os\nhandle = os.fdopen(3, "wb")\n'
    assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == ["DUR01"]


def test_dur01_fires_on_computed_mode():
    source = 'handle = open("out.bin", mode_variable)\n'
    assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == ["DUR01"]


def test_dur01_silent_on_read_modes():
    for source in ('handle = open("in.bin")\n',
                   'handle = open("in.bin", "rb")\n',
                   'handle = open("in.txt", "r", encoding="utf-8")\n'):
        assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == []


def test_dur01_silent_on_local_shadowing_open():
    source = ('def open(path, mode):\n'
              '    return None\n')
    # A def named open is not the builtin; only calls are checked anyway.
    assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == []


def test_dur01_scope_covers_restart_but_not_sim():
    source = 'handle = open("out.bin", "wb")\n'
    assert rules_at("src/repro/sim/restart.py", source,
                    ["DUR01"]) == ["DUR01"]
    assert rules_at("src/repro/sim/fleet.py", source, ["DUR01"]) == []
    assert rules_at("src/repro/core/x.py", source, ["DUR01"]) == []


def test_dur01_waivable_with_allow_comment():
    source = ('with open("t.bin", "wb") as f:  # repro: allow[DUR01]\n'
              '    f.write(b"x")\n')
    assert rules_at("src/repro/storage/x.py", source, ["DUR01"]) == []


# --------------------------------------------------------------------------- #
# OBS01 — wall-clock reads bypassing the obs funnel
# --------------------------------------------------------------------------- #
def test_obs01_fires_on_direct_perf_counter():
    source = "import time\nv = time.perf_counter()\n"
    assert rules_at("src/repro/sim/x.py", source, ["OBS01"]) == ["OBS01"]


def test_obs01_fires_where_det02_is_waived():
    # The two rules are waived apart: "feeds no decision" (DET02) does not
    # excuse bypassing the audited funnel.
    source = ("import time\n"
              "v = time.perf_counter()  # repro: allow[DET02] reported only\n")
    assert rules_at("src/repro/sim/x.py", source) == ["OBS01"]


def test_obs01_silent_on_the_funnel_itself():
    source = ("from repro.obs.instrument import perf_clock\n"
              "v = perf_clock()\n")
    assert rules_at("src/repro/sim/x.py", source, ["OBS01"]) == []


def test_obs01_silent_outside_instrumented_packages():
    source = "import time\nv = time.perf_counter()\n"
    assert rules_at("src/repro/experiments/x.py", source, ["OBS01"]) == []
    assert rules_at("src/repro/obs/x.py", source, ["OBS01"]) == []


def test_obs01_waivable_with_allow_comment():
    source = ("import time\n"
              "v = time.perf_counter()  "
              "# repro: allow[DET02, OBS01] timing the funnel itself\n")
    assert rules_at("src/repro/sim/x.py", source) == []


# --------------------------------------------------------------------------- #
# cross-rule isolation: each violating fixture trips exactly its own rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("path,source,rule", [
    ("src/repro/sim/a.py", "import random\nv = random.random()\n", "DET01"),
    # experiments/ is outside OBS01's scope, so the clock trips DET02 alone.
    ("src/repro/experiments/b.py", "import time\nv = time.time()\n", "DET02"),
    ("src/repro/core/c.py", "for x in {1, 2}:\n    print(x)\n", "DET03"),
    ("src/repro/sim/d.py", "v = sorted(items, key=id)\n", "DET04"),
    ("src/repro/sim/e.py", "v = x == 0.5\n", "FLT01"),
    ("src/repro/sim/f.py", _STM01_VIOLATION, "STM01"),
    ("src/repro/core/g.py", _SLT01_VIOLATION, "SLT01"),
    ("src/repro/rtree/i.py", "def f(x):\n    return x\n", "TYP01"),
    ("src/repro/storage/j.py", 'h = open("f.bin", "wb")\n', "DUR01"),
    # Every OBS01 path is also a DET02 path: waive the latter to isolate it.
    ("src/repro/net/k.py", "import time\nv = time.perf_counter()  "
                           "# repro: allow[DET02] reported only\n", "OBS01"),
])
def test_violating_fixture_trips_exactly_one_rule(path, source, rule):
    assert rules_at(path, source) == [rule]
