"""The outside tracer in perfbench/ can still wrap the package.

``perfbench/tracer.py`` names the functions it wraps and the report
attributes it reads as strings, so a rename in ``src/`` would only show up
as a failed benchmark run.  These tests read the tracer's tables (the file
is executed, never written) and check them against the package.
"""

import importlib
import inspect
import os
import types

import pytest

from stlhom.campaign import CampaignConfig, run_campaign
from stlhom.catalog import catalog_ring
from stlhom.domains import F3
import stlhom.leibniz as leibniz
from stlhom.leibniz import build_sl, homology_hl, uce
from stlhom.steinberg import (build_hat, build_stl, verify_calculus,
                              verify_cocycle, verify_sharp_relations)

from oracles import fields

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    # exec the source instead of importing it: no bytecode is cached
    # next to the benchmark files
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = TRACER_PATH
    with open(TRACER_PATH) as fh:
        exec(compile(fh.read(), TRACER_PATH, "exec"), mod.__dict__)
    return mod


def test_every_traced_function_resolves(tracer):
    for mod, fn in tracer.TRACED + (tracer.STREAM,):
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_result_counts_read_real_reports(tracer):
    ring = catalog_ring("ground", F3)
    model = build_stl(3, ring)
    results = {
        "campaign.run_campaign": run_campaign(CampaignConfig(
            [("ground", "f3")], ns=[3], checks=["calculus"])),
        "steinberg.verify_cocycle": verify_cocycle(3, ring),
        "steinberg.verify_calculus": verify_calculus(model),
        "steinberg.verify_sharp_relations": verify_sharp_relations(
            build_hat(model)),
        "leibniz.homology_hl": homology_hl(build_sl(3, ring), 2),
    }
    for metric, (span, read) in tracer.RESULT_COUNTS.items():
        assert span in results, f"{metric} reads an unexercised span {span}"
        value = read(results[span])
        assert isinstance(value, int) and value > 0, (metric, value)


def test_the_d3_stream_has_the_shape_the_tracer_reads(tracer):
    # the tracer wraps leibniz.iter_d3_columns by name, iterates it and
    # counts len(item[1]) per item
    assert tracer.STREAM == ("leibniz", "iter_d3_columns")
    assert inspect.isgeneratorfunction(leibniz.iter_d3_columns)
    items = list(leibniz.iter_d3_columns(build_sl(3, catalog_ring("ground",
                                                                  F3))))
    assert items
    for item in items:
        column, vec = item
        assert type(column) is int and type(vec) is dict and len(vec) > 0


def test_uce_and_homology_look_the_stream_up_at_call_time(tracer,
                                                          monkeypatch):
    # a wrapper set on the module sees every column uce and homology_hl
    # consume, and the outside tracer counts the same columns
    L = build_sl(3, catalog_ring("ground", F3))
    want = (uce(L).total.table, fields(homology_hl(L, 2)))
    inner = leibniz.iter_d3_columns
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(0)
        for item in inner(*args, **kwargs):
            seen[-1] += 1
            yield item

    monkeypatch.setattr(leibniz, "iter_d3_columns", wrapper)
    got = (uce(L).total.table, fields(homology_hl(L, 2)))
    monkeypatch.undo()
    assert got == want
    assert len(seen) == 2 and all(seen)
    with tracer.Tracer() as traced:
        uce(L)
        homology_hl(L, 2)
    summary = traced.summary()
    assert summary["leibniz.d3.streams"] == 2
    assert summary["leibniz.d3.columns"] == sum(seen)
    assert not tracer.traced_bindings()
