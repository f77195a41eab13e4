"""Byte-identity pins: the decision log and the JSON document of fixed runs.

``run()`` keeps no decision log; the trace derives the decisions again
(``iwnet.trace.decisions``), so a differential checks that they are, bit for
bit, the decisions phase 1 made during the run.

The SHA-256 values of the traces were recorded from the implementation
that still ran phase 1 on ``Interval`` objects; the float-only pass
states must keep every float operation, so every byte of the trace. The
JSON values were re-recorded when the document became version 2
(``format_version`` first, ``aggregated_matrix.edges`` in place of the
dense ``weights``), with no other change: on this corpus the new edges
rebuild the final network's dense matrix exactly
(``test_json_edges_rebuild_the_final_matrix``).
"""

import hashlib
import json
import random

import pytest

from iwnet import ZERO, Interval, emit_trace, louvain, run
from iwnet import trace as renderer
from iwnet.cli import _escape, _json_with_trace, _run_json

from helpers import pinned_networks, random_network, tie_network


PINNED = {
    ('dense12', 'cl'): ('a88c7807021667b3bc6d3416fcc74c84750b9b7e43d98fdb3943c9bdc21d0092',
        '6eb50d006daef206d6ac1f765a4575d72ab1019b6dad8d4002b7314993e529ea'),
    ('dense12', 'hl'): ('97ccc0f56f844444705a50eb532b34ad946a5accb3a3b0d424cd9a11786c2cee',
        'd5768a247fe2681cd18e5e2246428ca2e4736b1018b03461315ce075ed0939bc'),
    ('dense12', 'midpoint'): ('9d159036f72743b42c8e4538feb732d9d776bcfb62fe973ec7a685b185f30d52',
        '8fa3d1a475a99523b2a962e46f1d6efe105f3495a7002ed0751f0df1c0bbb89d'),
    ('sparse60', 'cl'): ('1ad673617bfb1e6d422d68fa2a75792210da0ab5269e202a32b3f2680f7d2444',
        '469f8a1d5f46cbc8d557029b5fc794e102cd9b922801bfb1757b40e740159611'),
    ('sparse60', 'hl'): ('20634367d4628a7ef577a9aaa1dacab171f4d0a7fcbd41e0011d76b631ea51d1',
        'b25cd93227445cbe0b43d547afff82d1fd67fc1c010d0d29a3a642684a1a682a'),
    ('sparse60', 'midpoint'): ('7bda850f087c6af90f3f87e83dddf6a7384564e7b1187aab0ee4a8844f91eb5b',
        '40a9bf108929c1db0b5266d60610b7c80494386c400dfad2abbde903b4e3d9da'),
    ('sparse200', 'cl'): ('99fbbfd90b6085e46bab056994461522961580193b468846a6056e4504875e94',
        'da988f79ddd4e79c681994d26f4b1f224c4d306ffa28288c22c5013a042bf1c9'),
    ('sparse200', 'hl'): ('1d823eee721aee8c5438d4ee11abbca56f3188c6d892f1ff197377f82c8fae90',
        '1a2493571da24ac494d211f3e5f25e230ffd2c0c7fb98b6bb18172e3d81c6ec5'),
    ('sparse200', 'midpoint'): ('8e8b87df9fe153bc4b59c36436284bd4d0eacc28095a1adf72301004d49c6550',
        'd4e74e8aa73b8c7a2ced54f819418316f2265ac362926f7161e1aba9b6211f6d'),
    ('degenerate40', 'cl'): ('c45cf6f434a18d87c80b78dcef338449bb92e83e044215b7958848c197cd6ad7',
        'c6004aff79386cba89b3592648fe001f7e20c32b3950250098c9b0a8cae2df34'),
    ('degenerate40', 'hl'): ('d8696bb30846bbf00533c0353bf267eab54618b450826586d67842d6f9fe49cc',
        '8b366da65f7098a9720d00e7bc4822005ec8b803d6d8add96d8ed055d979a5e1'),
    ('degenerate40', 'midpoint'): ('c45cf6f434a18d87c80b78dcef338449bb92e83e044215b7958848c197cd6ad7',
        'abc5bfbfbb87bdc4076f95c082a9a758bda94a89b1a94cf192e15f80e9a76512'),
    ('zero_lo_isolated30', 'cl'): ('5155a123243a731eee028998fda72a243ab005c8ab13bb7adf7cb0a126a66aec',
        '5da01fb13b50b7bd1a78dd8f574ce24b72eab689cb67960ed8a2f252a5dbd7f5'),
    ('zero_lo_isolated30', 'hl'): ('e12ccea60b84fe216524a0f150685b1ad0c2d59e0653c75aeb2cf8e9e060d54e',
        'd815e281db70be2767ffdd2ebab909d281a7a8387a6fc3039b238335df9a6ed8'),
    ('zero_lo_isolated30', 'midpoint'): ('58a8779b7aa7199b37fcfad8c9b54be477b47f5f3a88da5b21fd9ace8a021a79',
        '0cc9efd4dd1eec4a3f30092745a1dce6c4854ffc98ec2621fe4e2c401170f798'),
    ('all_zero_lo25', 'cl'): ('c430abc6ee9bbff935a0cf944725416be66f443a9b538543d988209b7c3b1e28',
        'b6c268c368c6c2c4615aa54aff297c278034e7e57ca809d894d12df1afcd6ca2'),
    ('all_zero_lo25', 'hl'): ('899fc21498fe654155fe002cfd03a432d880add2a1a4a498fe48a7b00e589a98',
        '7905aa71a54da2c3d3cd529c1ac071b341976ba73f64a6fab62e17be3f8e43de'),
    ('all_zero_lo25', 'midpoint'): ('17582b181515f24d60c45a96a1b4192e323d207b7131a7aea6dc96a66a3c3f30',
        '8a4075add5b2a6d541ecbcb8184eb94afb65edb0adb56f7fdd508c777140c11e'),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
def test_trace_and_json_bytes_are_pinned(method):
    for name, net in pinned_networks():
        result = run(net, method)
        trace = emit_trace(result)
        spelled = _escape(trace)[1:-1]  # the member's chunks come in JSON's spelling
        got = (_sha(trace), _sha("".join(_json_with_trace(_run_json(result), [spelled]))))
        assert got == PINNED[name, method], name


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
def test_json_edges_rebuild_the_final_matrix(method):
    """Version 2 of the document lists the final network's present entries
    as ``[i, j, lo, hi]``, i <= j in row order: they rebuild
    ``final_network.weights`` exactly."""
    for name, net in pinned_networks():
        result = run(net, method)
        doc = json.loads(_run_json(result))
        assert next(iter(doc.items())) == ("format_version", 2)
        final = result.final_network
        assert doc["aggregated_matrix"]["labels"] == list(final.labels)
        edges = doc["aggregated_matrix"]["edges"]
        assert [(i, j) for i, j, _, _ in edges] == sorted((i, j) for i, j, _, _ in edges)
        dense = [[ZERO] * final.n for _ in range(final.n)]
        for i, j, lo, hi in edges:
            assert i <= j
            dense[i][j] = dense[j][i] = Interval(lo, hi)
        assert tuple(map(tuple, dense)) == final.weights, name


def _bits(d):
    """A decision with each gain as its bits: -0.0 differs from 0.0."""
    return d.vertex, d.own, d.candidates, tuple(g.hex() for g in d.gains), d.target


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
def test_derived_decisions_are_those_phase_1_made(monkeypatch, method):
    """``decisions(run)`` yields what ``step`` decided during ``run()``: the
    community v left, the candidates and gains it left on the state and
    where v went, in order, on the pinned corpus and on networks whose
    moves tie exactly; gains compare by their bits."""
    kind = louvain._kind(louvain.Strategy(method))
    step = kind.step
    made = []

    def recording(state, v):
        own = state.comm_of[v]
        moved = step(state, v)
        target = state.comm_of[v] if moved else None
        assert moved == (state.comm_of[v] != own)
        made.append(
            renderer.Decision(v, own, tuple(state.links), tuple(state.gains), target)
        )
        return moved

    rng = random.Random(102)
    nets = [net for _, net in pinned_networks()]
    nets += [tie_network(rng, shape, rng.randrange(3, 13)) for shape in ("ring", "star", "bipartite") * 6]
    checked = 0
    for net in nets:
        made.clear()
        monkeypatch.setattr(kind, "step", recording)
        result = run(net, method)
        monkeypatch.setattr(kind, "step", step)
        derived = list(renderer.decisions(result))
        assert list(map(_bits, derived)) == list(map(_bits, made))
        checked += len(made)
    assert checked > 2000, checked


def test_decisions_refuse_a_pass_that_ends_elsewhere():
    """A pass whose sweeps do not end on its recorded partition raises."""
    result = run(random_network(random.Random(103), 20, density=0.2), "hl")
    first = result.passes[0]
    assert first.changed
    wrong = first._replace(partition=first.partition.singletons(len(first.partition.assignment)))
    tampered = result._replace(passes=(wrong, *result.passes[1:]))
    with pytest.raises(RuntimeError, match="pass 1 did not derive its recorded partition"):
        list(renderer.decisions(tampered))
