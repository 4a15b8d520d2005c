import numpy as np

import tracing


def _spans(rows):
    """rows: (name, parent, start, end)"""
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows]),
        "parent": np.array([r[1] for r in rows]),
        "start": np.array([r[2] for r in rows]),
        "end": np.array([r[3] for r in rows]),
    }


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 60) > b [20, 30), b [40, 45); root > c [70, 90)
    parent = np.array([-1, 0, 1, 1, 0])
    start = np.array([0, 10, 20, 40, 70])
    end = np.array([100, 60, 30, 45, 90])
    assert tracing.self_times(parent, start, end).tolist() == [30, 35, 10, 5, 20]


def test_layer_self_time_sums_to_root_duration():
    spans = _spans([
        ("cli.run", -1, 0, 1000),
        ("trial_engine.run_campaign", 0, 100, 900),
        ("similarity.assess_similarity", 1, 200, 300),
        ("distributions.hellinger_numeric", 2, 220, 280),
        ("adaptive_design.adjust_control_prior", 1, 400, 700),
        ("ess.rescale_to_ess", 4, 450, 650),
        ("ess.elir_ess", 5, 500, 600),
    ])
    layers = tracing.layer_self_ns(spans)
    assert layers == {
        "cli": 200, "trial_engine": 400, "similarity": 40, "distributions": 60,
        "ess": 200, "adaptive_design": 100, "calibration": 0,
    }
    assert sum(layers.values()) == 1000
    assert tracing.self_ns_by_name(spans)["ess.rescale_to_ess"] == 100


def test_span_dump_keeps_name_start_end_and_parent(tmp_path):
    tr = tracing.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tr.wrap(leaf, "distributions.leaf")

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_middle = tr.wrap(middle, "similarity.middle")
    traced_root = tr.wrap(lambda: traced_middle(1) + traced_leaf(0), "cli.root")
    assert traced_root() == 5
    path = tmp_path / "spans.npz"
    tr.dump(path)
    spans = tracing.load_spans(path)

    names = [str(spans["names"][i]) for i in spans["name_id"]]
    # spans are stored in call order; the root opens first
    assert names == ["cli.root", "similarity.middle", "distributions.leaf",
                     "distributions.leaf", "distributions.leaf"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1, 0]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert np.all(end >= start)
    for i, p in enumerate(parent):
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p]
    table = tracing.span_table(spans)
    assert len(table["distributions.leaf"]) == 3


def test_span_closes_when_the_callee_raises(tmp_path):
    tr = tracing.Tracer()

    def boom():
        raise ValueError("x")

    traced = tr.wrap(boom, "cli.boom")
    try:
        traced()
    except ValueError:
        pass
    after = tr.wrap(lambda: None, "cli.after")
    after()
    assert tr.parent.tolist() == [-1, -1]
    assert tr.end[0] >= tr.start[0] > 0
