from itertools import product
from math import prod
from operator import add, getitem, sub

import pytest

from darkc.cartan import CartanA, cl_simple_root
from darkc.crystal import (EAGER_ROWS, ModelConsistencyError, ProductTable, TensorElt, _Rows,
                           classical_highest_path, crystal_edges, demazure_closure, eps,
                           f_closure, graph_dot, graph_json, phi)
from darkc.dark import build, make_spec
from darkc.kr import KRTable, generate, parse_tableau
from darkc.selftest import _axiom_families
from oracles import clweight


def elt(n, text):
    return parse_tableau(CartanA(n), text)


def tensor(n, *texts):
    return TensorElt(tuple(elt(n, t) for t in texts))


def test_tensor_rule_examples_n1():
    assert tensor(1, "1", "1").f(1) == tensor(1, "2", "1")
    assert tensor(1, "2", "1").f(1) == tensor(1, "2", "2")
    assert tensor(1, "1", "1").e(0) == tensor(1, "1", "2")
    assert tensor(1, "1", "2").f(1) is None
    assert tensor(1, "1", "2").e(1) is None


def test_stats_example():
    b = elt(1, "1")
    assert b.stats(0) == (1, 0)
    assert b.stats(1) == (0, 1)
    assert clweight(b) == (-1, 1)


def test_weight_step_under_operators():
    c = CartanA(2)
    for T in generate(c, 1, 2):
        for i in c.nodes:
            down = T.f(i)
            if down is not None:
                assert tuple(map(sub, clweight(T), clweight(down))) == cl_simple_root(c, i)


def test_tensor_stats_match_two_factor_formula():
    for n in (1, 2):
        c = CartanA(n)
        for a, b in product(generate(c, 1, 1), generate(c, 1, 2)):
            x = TensorElt((a, b))
            for i in c.nodes:
                assert eps(x, i) == eps(a, i) + max(0, eps(b, i) - phi(a, i))
                assert phi(x, i) == phi(b, i) + max(0, phi(a, i) - eps(b, i))


def test_tensor_associativity():
    # flat triple vs nested pairings act identically
    for n in (1, 2):
        c = CartanA(n)
        B = generate(c, 1, 1)
        for t in product(B, B, B):
            flat = TensorElt(t)
            left = TensorElt((TensorElt(t[:2]), t[2]))
            right = TensorElt((t[0], TensorElt(t[1:])))
            for i in c.nodes:
                for op in ("e", "f"):
                    got_flat = getattr(flat, op)(i)
                    got_left = getattr(left, op)(i)
                    got_right = getattr(right, op)(i)
                    assert (got_flat is None) == (got_left is None) == \
                        (got_right is None)
                    if got_flat is not None:
                        assert got_left.factors[0].factors + \
                            (got_left.factors[1],) == got_flat.factors
                        assert (got_right.factors[0],) + \
                            got_right.factors[1].factors == got_flat.factors


def _walked_lengths(elements, move, cap=100):
    """For each element, how many times `move` applies before it returns
    None, walking each string once."""
    out = {}
    for x in elements:
        path = []
        while x is not None and x not in out:
            path.append(x)
            assert len(path) <= cap, "string does not terminate"
            x = move(x)
        k = -1 if x is None else out[x]
        for y in reversed(path):
            k += 1
            out[y] = k
    return out


def test_string_lengths():
    # eps and phi of a tensor come from the signature rule on its factors'
    # integers; walking the element's own e_i and f_i checks them
    # independently: on B^{2,2} at n = 2, on every tensor of the criterion-1
    # grid at n <= 2, and on both nestings of every grid triple at n = 1
    c = CartanA(2)
    families = [(c, list(generate(c, 2, 2)))]
    for c, space in _axiom_families():
        if c.n > 2 or not isinstance(space, ProductTable):
            continue
        elts = [space.element(x) for x in range(len(space.wt))]
        family = list(elts)
        if c.n == 1 and len(elts[0].factors) == 3:
            family += [TensorElt((TensorElt(x.factors[:2]), x.factors[2]))
                       for x in elts]
            family += [TensorElt((x.factors[0], TensorElt(x.factors[1:])))
                       for x in elts]
        families.append((c, family))
    assert sum(len(family) for _, family in families) > 50000
    for c, family in families:
        for i in c.nodes:
            up = _walked_lengths(family, lambda y: y.e(i))
            down = _walked_lengths(family, lambda y: y.f(i))
            for x in family:
                assert (up[x], down[x]) == (eps(x, i), phi(x, i)), (x, i)


def _codes(space, eager_rows=EAGER_ROWS) -> ProductTable:
    """The product of the KR factors of a criterion-1 family, as build makes it."""
    return ProductTable.of(space.tables if isinstance(space, ProductTable) else (space,),
                           eager_rows=eager_rows)


def _node(space: ProductTable, i: int):
    """x -> (eps_i, phi_i, e_i x, f_i x) by the steps of space."""
    stats, up, down = space.eps_phi(i), space.raising(i), space.lowering(i)
    return lambda x: stats(x) + (up(x), down(x))


def _fold_weight(space: ProductTable, x) -> tuple[int, ...]:
    """The weight of code x as one tuple add per factor over the KR tables'
    wt, apart from the two-level split that ProductTable and lhs_character use."""
    wts = map(getitem, (t.wt for t in space.tables), space.factors(x))
    w = next(wts)
    for v in wts:
        w = tuple(map(add, w, v))
    return w


def test_codes_match_tensor_elements():
    # build and the energy tables run on the steps; here they meet
    # TensorElt on every criterion-1 family at n <= 2, and so does the weight
    # as lhs_character splits it, left factor plus the table of the rest
    checked = 0
    for c, space in _axiom_families():
        if c.n > 2:
            continue
        space = _codes(space)
        rows = [_node(space, i) for i in c.nodes]
        right = space.right.wt
        for x in range(len(space)):
            b = space.element(x)
            a, k = divmod(x, space.width)
            assert tuple(map(add, space.left.wt[a], right[k])) == clweight(b)
            for i in c.nodes:
                moved = (-1 if y is None else space.code(y) for y in (b.e(i), b.f(i)))
                assert rows[i](x) == b.stats(i) + tuple(moved), (b, i)
            checked += 1
    assert checked > 10000


def _encode(tables, positions) -> int:
    """The product position of factor positions, in mixed radix."""
    x = 0
    for t, k in zip(tables, positions):
        x = x * len(t.elements) + k
    return x


def test_product_tables_match_codes():
    # criteria 1, 2 and 8 read table arrays, build runs on the steps: the two
    # meet at the same int position of all 370 criterion-1 families at every
    # rank, with triples nested as B1 (x) (B2 (x) B3); factors and code
    # round-trip.  With eager_rows=0, `of` reads P row by row, as build does
    # for a large P, so the rows of a triple's P meet the pair table's arrays
    rows = 0
    for c, space in _axiom_families():
        codes = _codes(space, eager_rows=0)
        tables = codes.tables
        assert len(codes) == len(space.wt)
        if len(tables) == 3:
            lazy, pair = codes.right, space.right
            assert not isinstance(lazy, ProductTable)
            for x in range(len(pair.wt)):
                assert lazy.wt[x] == pair.wt[x]
                assert [power[x] for power in lazy.pr_powers] == \
                    [power[x] for power in pair.pr_powers]
        for x in range(len(codes)):
            factors = codes.factors(x)
            assert _encode(tables, factors) == x
            b = codes.element(x)
            assert tuple(a.pos for a in b.factors) == factors and codes.code(b) == x
            assert space.wt[x] == _fold_weight(codes, x)
            for k, power in enumerate(space.pr_powers):
                assert power[x] == _encode(tables, (t.pr_powers[k][j]
                                                    for t, j in zip(tables, factors)))
            if isinstance(space, ProductTable):
                assert space.element(x) == b
        for i in c.nodes:
            node = _node(codes, i)
            for x in range(len(codes)):
                ep, ph, up, down = node(x)
                assert (space.stats[i][x], space.e[i][x], space.f[i][x]) == \
                    ((ep, ph), up, down), (codes.element(x), i)
                rows += 1
    assert rows == 228260  # 227,688 on products, 572 on the 157 tableaux


@pytest.mark.parametrize("shapes", [
    ((1, 0), (1, 2)), ((1, 2), (2, 0)), ((2, 0), (1, 0)),  # a trivial factor on either side
    ((1, 2), (1, 0), (1, 1)), ((1, 1), (1, 2), (2, 0)),    # and inside a triple
    ((2, 1),), ((1, 0),),                                  # one table over the _Unit
])
def test_column_passes_on_trivial_and_unit_factors(shapes):
    # the criterion-1 families all have s >= 1: here a one-element B^{r,0}
    # and the one-element right factor of a single table meet the steps
    c = CartanA(2)
    space = ProductTable.of([generate(c, *sh)[0].table for sh in shapes])
    tables = space.tables
    nodes = [_node(space, i) for i in c.nodes]
    assert len(space.wt) == len(space) == prod(len(t.elements) for t in tables)
    for x in range(len(space)):
        factors = space.factors(x)
        assert space.wt[x] == _fold_weight(space, x)
        for i in c.nodes:
            ep, ph, up, down = nodes[i](x)
            assert (space.stats[i][x], space.e[i][x], space.f[i][x]) == ((ep, ph), up, down)
        assert [power[x] for power in space.pr_powers] == [
            _encode(tables, (t.pr_powers[k][j] for t, j in zip(tables, factors)))
            for k in range(c.m)]


def test_a_product_over_rows_has_no_whole_arrays():
    # with eager_rows=0 the right factor of a triple is read row by row, and
    # its memos hold only the rows read so far: every whole array of the
    # product raises, naming that factor, rather than read those rows alone
    c = CartanA(2)
    space = ProductTable.of([generate(c, 1, s)[0].table for s in (2, 1, 1)], eager_rows=0)
    assert isinstance(space.right, _Rows) and len(space) == 54
    space.right.wt[0], space.right.stats[1][0], space.right.pr_powers[1][0]
    for name in ("wt", "stats", "e", "f", "pr", "pr_powers"):
        with pytest.raises(TypeError, match=r"^B\^\{1,1\} \(x\) B\^\{1,1\} is read row by row"):
            getattr(space, name)


def test_edges_read_the_factors_arrays():
    # crystal_edges against the lowering steps on a three-factor set, over an
    # enumerated P and over one read row by row
    dark = build(make_spec(2, (2, 1, 1), (1, 1, 1), [(2, 1), (1,), (2, 1)]))
    codes = dark.energies
    nodes = sorted(codes)
    index = {x: k for k, x in enumerate(nodes)}
    assert 0 < len(codes) < len(dark.product) == 54
    for eager_rows in (EAGER_ROWS, 0):
        space = ProductTable.of(dark.product.tables, eager_rows=eager_rows)
        assert isinstance(space.right, _Rows) == (eager_rows == 0)
        steps = sorted((index[x], index[y], i) for i in space.cartan.nodes
                       for x in nodes for y in [space.lowering(i)(x)] if y in index)
        assert crystal_edges(space, codes) == (nodes, steps)
        assert len(steps) > len(nodes)


@pytest.mark.parametrize("side, cut", [
    pytest.param(side, cut, id=side if cut == "both" else f"{side}-{cut}")
    for side in "ef" for cut in ("both", "left", "right")])
def test_a_dead_factor_fails_the_product_table(side, cut):
    # fresh tables, so the interned one stays intact; eps and phi are read
    # before the arrows of node 1 are cut, so the rule still picks a factor.
    # The table checks each factor's arrows on its own, so a cut on either
    # side alone must fail too.  Construction reads no array; e and f are
    # built together, and kept only when both are, so every read fails
    c = CartanA(2)
    t, intact = KRTable(c, 1, 2), KRTable(c, 1, 2)
    t.stats
    getattr(t, side)[1] = [-1] * len(t.elements)
    left, right = {"both": (t, t), "left": (t, intact), "right": (intact, t)}[cut]
    for reads in ("efe", "fef"):
        space = ProductTable(left, right)
        for array in reads:
            with pytest.raises(ModelConsistencyError, match=f"dead factor for {side}"):
                getattr(space, array)


def test_an_enumerated_P_is_inner_only_over_enumerated_rows():
    # P is inner itself when inner's own right factor is enumerated, so its
    # arrays are built once; an inner over rows read one at a time has no
    # arrays to read, and an enumerated P is then built afresh
    c = CartanA(2)
    tables = [generate(c, 1, s)[0].table for s in (3, 2, 1, 1)]
    whole = ProductTable.of(tables)
    for inner_rows in (EAGER_ROWS, 1):
        inner = ProductTable.of(tables[1:], eager_rows=inner_rows)
        space = ProductTable.of(tables, inner)
        assert (space.right is inner) == (inner_rows == EAGER_ROWS)
        assert (space.stats, space.e, space.f) == (whole.stats, whole.e, whole.f)


def test_a_dead_factor_fails_the_closure_walk(monkeypatch):
    # "1" in one fresh B^{1,1} at n = 1 loses its f_1 arrow: the walk from
    # 1 (x) 1 moves the left factor, from 2 (x) 1 the right one, and each
    # must fail on the factor cut, the other factor being intact
    c = CartanA(1)
    t, intact = KRTable(c, 1, 1), KRTable(c, 1, 1)
    pos = {b.text(): b.pos for b in t.elements}
    monkeypatch.setitem(t.f, 1, [-1 if k == pos["1"] else y for k, y in enumerate(t.f[1])])
    for space, left in ((ProductTable(t, intact), "1"), (ProductTable(intact, t), "2")):
        with pytest.raises(ModelConsistencyError, match="dead factor for f"):
            space.close(1, {pos[left] * 2 + pos["1"]: 0}, None)


def test_f_closure_examples():
    assert f_closure(1, set()) == set()
    seed = {tensor(1, "1", "1")}
    closed = f_closure(1, seed)
    assert closed == {tensor(1, "1", "1"), tensor(1, "2", "1"),
                      tensor(1, "2", "2")}
    assert f_closure(1, closed) == closed


def test_demazure_closure_examples():
    b = TensorElt((elt(1, "1"),))
    assert demazure_closure((), {b}) == {b}
    assert demazure_closure((1,), {b}) == {b, TensorElt((elt(1, "2"),))}


def test_classical_highest_path():
    hw, word = classical_highest_path(tensor(1, "2", "1"))
    assert hw == tensor(1, "1", "1") and word == (1,)
    hw, word = classical_highest_path(tensor(1, "1", "2"))
    assert hw == tensor(1, "1", "2") and word == ()
    # the recorded word recovers the element
    x = tensor(2, "3", "2")
    hw, word = classical_highest_path(x)
    back = hw
    for i in reversed(word):
        back = back.f(i)
    assert back == x


def test_graph_exports_golden():
    space = ProductTable.of((generate(CartanA(1), 1, 1)[0].table,))
    codes = set(range(len(space)))
    assert graph_dot(space, codes) == (
        'digraph crystal {\n'
        '  rankdir=LR;\n'
        '  0 [label="1"];\n'
        '  1 [label="2"];\n'
        '  0 -> 1 [label="1"];\n'
        '  1 -> 0 [label="0"];\n'
        '}\n')
    assert graph_json(space, codes) == {
        "nodes": ["1", "2"],
        "edges": [{"src": 0, "dst": 1, "i": 1}, {"src": 1, "dst": 0, "i": 0}],
    }


def test_mismatched_factors_rejected():
    with pytest.raises(ValueError):
        TensorElt(())
    with pytest.raises(ValueError):
        TensorElt((elt(1, "1"), elt(2, "1")))
