"""Messages and report details that name an integer stay bounded whatever
its size: each names it through ``exactla._clip``, which writes an int
that ``str()`` refuses by its sign and bit length.  ``BIG`` is sized from
the interpreter's digit limit, so these tests hold at any setting of it
(``python -X int_max_str_digits=640`` is the smallest)."""

import argparse
import math

import pytest

from critgraph import cli, critgroup
from critgraph.critgroup import AbelianGroup, closed_form_group, verify_reduction_pipeline
from critgraph.exactla import IntegerMatrix, _clip, determinantal_divisor
from critgraph.graph import Multigraph, c4xcn, cycle
from critgraph.seq import (
    SeqKind, derived_seq, first_valuation_mismatch, observed_valuation, predicted_valuation, u_seq,
    v_partial_sum,
)
from critgraph.treecount import trig_product_check
import golden.regen

LIMIT = golden.regen.digit_limit()
BIG = 10 ** (LIMIT + 1)


def _namespace(**fields):
    return argparse.Namespace(json=False, **fields)


# each call is made with x = BIG and x = -BIG; where one sign is valid
# input, the call takes abs(x) or -abs(x) so that both calls fail
SITES = {
    "multigraph-vertex-count": (ValueError, lambda x: Multigraph(-abs(x))),
    "multigraph-self-loop": (ValueError, lambda x: Multigraph(3, {(x, x): 1})),
    "multigraph-range": (ValueError, lambda x: Multigraph(3, {(0, x): 1})),
    "multigraph-multiplicity": (ValueError, lambda x: Multigraph(3, {(0, 1): -abs(x)})),
    "cycle": (ValueError, lambda x: cycle(-abs(x))),
    "c4xcn": (ValueError, lambda x: c4xcn(-abs(x))),
    "closed-form-group": (ValueError, lambda x: closed_form_group(-abs(x))),
    "u-seq-m": (ValueError, lambda x: u_seq(-abs(x), 1)),
    "u-seq-index": (ValueError, lambda x: u_seq(1, -abs(x))),
    "derived-seq-kind": (ValueError, lambda x: derived_seq(x, 3)),
    "v-partial-sum-index": (ValueError, lambda x: v_partial_sum(1, -abs(x), 2)),
    "v-partial-sum-q": (ValueError, lambda x: v_partial_sum(1, 1, -abs(x))),
    "observed-valuation": (ValueError, lambda x: observed_valuation(3, -abs(x))),
    "predicted-valuation-prime": (ValueError, lambda x: predicted_valuation(SeqKind.E, x, 3)),
    "predicted-valuation-index": (ValueError, lambda x: predicted_valuation(SeqKind.E, 2, -abs(x))),
    "first-valuation-mismatch-prime": (ValueError, lambda x: first_valuation_mismatch(SeqKind.E, x, 3)),
    "first-valuation-mismatch-upto": (ValueError, lambda x: first_valuation_mismatch(SeqKind.E, 2, -abs(x))),
    "determinantal-divisor": (ValueError, lambda x: determinantal_divisor(IntegerMatrix([[1]]), x)),
    "exact-div": (ArithmeticError, lambda x: critgroup._exact_div(x + 1, 2)),
    "trig-tolerance": (ValueError, lambda x: trig_product_check(5, x)),
    "cli-laplacian-size": (ValueError, lambda x: cli._require_laplacian_size(abs(x))),
    "cli-seq-upto": (ValueError, lambda x: cli._cmd_seq(_namespace(kind="e", upto=-abs(x), m=None))),
    "cli-seq-bound": (ValueError, lambda x: cli._cmd_seq(_namespace(kind="u", upto=abs(x), m=abs(x)))),
    "cli-closed-form-size": (ValueError, lambda x: cli._require_closed_form_size(abs(x))),
    "cli-valuations-low": (ValueError, lambda x: cli._cmd_valuations(_namespace(upto=-abs(x)))),
    "cli-valuations-high": (ValueError, lambda x: cli._cmd_valuations(_namespace(upto=abs(x)))),
    "cli-parallelism": (
        ValueError,
        lambda x: cli._cmd_verify(_namespace(parallelism=-abs(x), range="3..4", pipeline=False)),
    ),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["big", "minus-big"])
@pytest.mark.parametrize("site", SITES)
def test_message_naming_an_integer_is_bounded(site, sign):
    error, call = SITES[site]
    with pytest.raises(error) as info:
        call(sign * BIG)
    message = str(info.value)
    assert type(info.value) is error and len(message) <= 200, message
    # the site's own message names the value; the interpreter's digit-limit
    # error, also a ValueError, would not
    if LIMIT:
        assert f"<{BIG.bit_length()}-bit integer>" in message, message


def test_clip_names_an_integer_str_refuses_by_its_bit_length():
    assert _clip(12345) == "12345"
    assert _clip(-(10**100)) == "-1" + "0" * 75 + "..."
    assert [_clip(x) for x in (1e-09, -0.0, math.nan, -math.inf)] == ["1e-09", "-0.0", "nan", "-inf"]
    if LIMIT:
        assert _clip(BIG) == f"<{BIG.bit_length()}-bit integer>"
        assert _clip(-BIG) == f"-<{BIG.bit_length()}-bit integer>"


@pytest.mark.parametrize("n", [6425, 6481, 6601, 20000, 20001])
def test_pipeline_passes_past_the_digit_limit(n):
    # from n = 6425 on, the largest invariant factor can have more digits
    # than str() converts at the default limit
    report = verify_reduction_pipeline(n)
    assert report.all_passed, report.failures()
    assert all(len(detail) <= 200 for _, _, detail in report.stage_checks)


def test_pipeline_failure_details_name_big_values_bounded(monkeypatch):
    real = critgroup.relations_matrix

    def corner_off_by_big(n):
        rows = real(n).to_lists()
        rows[0][0] += BIG
        return IntegerMatrix(rows)

    monkeypatch.setattr(critgroup, "relations_matrix", corner_off_by_big)
    monkeypatch.setattr(critgroup, "closed_form_group", lambda n: AbelianGroup((BIG,)))
    failures = verify_reduction_pipeline(5).failures()
    assert [name for name, _, _ in failures] == ["rank-one-split", "final-snf-closed-form"]
    assert all(len(detail) <= 200 for _, _, detail in failures)
    assert failures[1][2].endswith(f"!= closed form Z{_clip(BIG)}")
