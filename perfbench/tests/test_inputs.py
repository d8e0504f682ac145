from perfbench import inputs


def _texts(pairs):
    return [(p.pair_id, p.instruction, p.response) for p in pairs]


def test_same_seed_same_inputs():
    a = inputs.open_loop(7, "online", 100.0, 2.0, 0.2, 0.25)
    b = inputs.open_loop(7, "online", 100.0, 2.0, 0.2, 0.25)
    assert _texts(a[0]) == _texts(b[0]) and a[1] == b[1]
    c = inputs.closed_loop(7, "fleet", 50, 0.2)
    d = inputs.closed_loop(7, "fleet", 50, 0.2)
    assert _texts(c[0]) == _texts(d[0]) and c[1] == d[1]
    assert _texts(inputs.pairs(7, "offline", 30)) == _texts(
        inputs.pairs(7, "offline", 30)
    )
    population = list(range(100))
    assert inputs.sample(7, "s", population, 5) == inputs.sample(7, "s", population, 5)


def test_other_seed_other_inputs():
    assert _texts(inputs.pairs(7, "offline", 30)) != _texts(
        inputs.pairs(8, "offline", 30)
    )
    assert inputs.open_loop(7, "online", 100.0, 2.0, 0.2, 0.25)[1] != (
        inputs.open_loop(8, "online", 100.0, 2.0, 0.2, 0.25)[1]
    )


def test_open_loop_shape():
    pool, schedule = inputs.open_loop(3, "online", 200.0, 5.0, 0.2, 0.25)
    dues = [req.due for req in schedule]
    assert dues == sorted(dues) and dues[-1] < 5.0
    assert len(schedule) == 1000
    fresh = [req for req in schedule if not req.repeat]
    assert [req.pair for req in fresh] == list(range(len(pool)))
    seen = set()
    for req in schedule:
        if req.repeat:
            assert (req.kind, req.pair) in seen
        seen.add((req.kind, req.pair))
    kinds = {req.kind for req in schedule}
    assert kinds == {inputs.KIND_STREAM, inputs.KIND_SCORE}
