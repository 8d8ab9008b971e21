import pickle
import sys
import tracemalloc
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from darkc import crystal, kr
from darkc.cartan import CartanA, rotate
from darkc.crystal import ModelConsistencyError, TensorElt, eps, phi
from darkc.kr import (RectTableau, find_b_rs, generate, parse_tableau, parse_tensor,
                      promote_k, promotion, promotion_inverse, promotion_inverse_by_slides, twist)
from darkc.selftest import single_shapes
from oracles import classical_e, classical_f, clweight, promotion_by_slides, tableau_text


def elt(n, text, r=None):
    return parse_tableau(CartanA(n), text, r)


def test_generate_counts():
    c1 = CartanA(1)
    assert [T.text() for T in generate(c1, 1, 1)] == ["1", "2"]
    assert [T.text() for T in generate(c1, 1, 2)] == ["11", "12", "22"]
    c2 = CartanA(2)
    assert [T.text() for T in generate(c2, 2, 1)] == ["1/2", "1/3", "2/3"]
    for n in (1, 2, 3):
        c = CartanA(n)
        for s in (0, 1, 2, 3):
            assert len(generate(c, 1, s)) == comb(s + n, n)


def test_generate_validates_shape():
    with pytest.raises(IndexError):
        generate(CartanA(1), 2, 1)
    with pytest.raises(ValueError):
        generate(CartanA(2), 1, -1)


def test_semistandard_validation():
    c = CartanA(2)
    with pytest.raises(ValueError):
        RectTableau(c, ((2, 1),))
    with pytest.raises(ValueError):
        RectTableau(c, ((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        RectTableau(c, ((4,),))


def test_classical_operator_examples():
    for n in (1, 2, 3):
        assert classical_f(1, elt(n, "11")).text() == "12"
    assert classical_e(1, elt(1, "12")).text() == "11"
    assert classical_f(1, elt(1, "12")).text() == "22"
    assert classical_f(1, elt(1, "22")) is None


def test_classical_inverse_property():
    for n in (1, 2):
        c = CartanA(n)
        for r in range(1, min(n, 2) + 1):
            for s in (1, 2, 3):
                for T in generate(c, r, s):
                    for i in c.classical_nodes:
                        down = classical_f(i, T)
                        if down is not None:
                            assert classical_e(i, down) == T
                        up = classical_e(i, T)
                        if up is not None:
                            assert classical_f(i, up) == T


def test_promotion_examples():
    assert promotion(elt(1, "1")).text() == "2"
    assert promotion(elt(1, "2")).text() == "1"
    assert promotion(elt(2, "12")).text() == "23"
    # jeu de taquin traced by hand, single and double holes
    assert promotion(elt(2, "12/23")).text() == "12/33"
    assert promotion(elt(2, "11/23")).text() == "12/23"
    assert promotion(elt(2, "11/33")).text() == "11/22"
    assert promotion(elt(2, "12/33")).text() == "11/23"


def test_promotion_order_and_inverse():
    for n in (1, 2, 3):
        c = CartanA(n)
        for r in range(1, min(n, 2) + 1):
            for s in (0, 1, 2, 3):
                for T in generate(c, r, s):
                    assert promote_k(T, c.m) == T
                    assert promotion_inverse(promotion(T)) == T
                    assert promotion(promotion_inverse(T)) == T
                    assert clweight(promotion(T)) == rotate(c, 1, clweight(T))


def test_affine_arrow_examples():
    assert elt(1, "2").f(0).text() == "1"
    assert elt(1, "1").e(0).text() == "2"
    assert elt(1, "11").f(0) is None
    assert elt(1, "22").f(0).text() == "12"


def test_weight_pairing_holds_at_node_zero():
    c = CartanA(2)
    for T in generate(c, 2, 2):
        assert clweight(T)[0] == phi(T, 0) - eps(T, 0)


def test_connectivity_under_all_arrows():
    for n in (1, 2, 3):
        c = CartanA(n)
        for r in range(1, min(n, 2) + 1):
            for s in (1, 2, 3):
                all_elts = set(generate(c, r, s))
                seen = {next(iter(sorted(all_elts, key=lambda t: (t.shape, t.pos))))}
                frontier = list(seen)
                while frontier:
                    nxt = []
                    for T in frontier:
                        for i in c.nodes:
                            for move in (T.e(i), T.f(i)):
                                if move is not None and move not in seen:
                                    seen.add(move)
                                    nxt.append(move)
                    frontier = nxt
                assert seen == all_elts


def test_find_b_rs_examples():
    assert find_b_rs(CartanA(1), 1, 1).text() == "1"
    assert find_b_rs(CartanA(2), 1, 2).text() == "11"
    assert find_b_rs(CartanA(2), 2, 2).text() == "11/22"
    trivial = find_b_rs(CartanA(2), 2, 0)
    assert trivial.shape == (2, 0) and trivial.text() == "-"


def test_trivial_crystal_is_inert():
    c = CartanA(2)
    (T,) = generate(c, 1, 0)
    for i in c.nodes:
        assert T.e(i) is None and T.f(i) is None
    assert clweight(T) == (0, 0, 0)


def test_twist_examples():
    c = CartanA(2)
    x = TensorElt((elt(2, "11"), elt(2, "1/2")))
    assert twist(0, x) == x
    assert twist(1, x) == TensorElt((elt(2, "22"), elt(2, "2/3")))
    assert twist(3, x) == x
    for k in (1, 2):
        assert clweight(twist(k, x)) == rotate(c, k, clweight(x))


def test_twist_intertwines_on_samples():
    c = CartanA(2)
    B1 = generate(c, 1, 2)
    B2 = generate(c, 2, 1)
    for a, b in product(B1, B2):
        x = TensorElt((a, b))
        z = twist(1, x)
        for i in c.nodes:
            fx = x.f(i)
            assert (None if fx is None else twist(1, fx)) == z.f((i + 1) % c.m)


def test_text_round_trip():
    c = CartanA(2)
    for text in ("1", "12", "1/2", "11/22", "-"):
        assert tableau_text(parse_tableau(c, text)) == text
    big = CartanA(10)
    T = RectTableau(big, ((1, 10), (2, 11)))
    assert T.text() == "1,10/2,11"
    assert parse_tableau(big, "1,10/2,11") == T
    assert parse_tensor(c, "11/22|1").factors[0] == elt(2, "11/22")


def test_find_b_rs_is_classical_highest():
    for n in (1, 2, 3):
        c = CartanA(n)
        for r in range(1, min(n, 2) + 1):
            for s in (1, 2, 3):
                b = find_b_rs(c, r, s)
                assert b.rows == tuple((i,) * s for i in range(1, r + 1))


def test_single_classical_component():
    # classical arrows alone connect B^{r,s}, and the unique classical
    # highest weight is s copies of the level-zero fundamental at node r
    for n in (1, 2, 3):
        c = CartanA(n)
        for r in range(1, min(n, 2) + 1):
            for s in (1, 2, 3):
                all_elts = set(generate(c, r, s))
                highest = [T for T in all_elts
                           if all(eps(T, i) == 0 for i in c.classical_nodes)]
                assert len(highest) == 1
                want = [0] * c.m
                want[r], want[0] = s, -s
                assert clweight(highest[0]) == tuple(want)
                seen = set(highest)
                frontier = list(seen)
                while frontier:
                    nxt = []
                    for T in frontier:
                        for i in c.classical_nodes:
                            down = T.f(i)
                            if down is not None and down not in seen:
                                seen.add(down)
                                nxt.append(down)
                    frontier = nxt
                assert seen == all_elts


def _walk(T, i, up):
    """e_i (up) or f_i of T computed on the tableau: the bracketing rule for
    classical i, and for i = 0 node 1 conjugated by the promotion slides."""
    if i > 0:
        return (classical_e if up else classical_f)(i, T)
    moved = (classical_e if up else classical_f)(1, promotion_by_slides(T))
    return None if moved is None else promotion_inverse_by_slides(moved)


def _string_length(T, i, up):
    steps = 0
    while (T := _walk(T, i, up)) is not None:
        steps += 1
    return steps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_arrays_match_walks_on_tableaux(n):
    c = CartanA(n)
    for r, s in single_shapes(n):
        elements = generate(c, r, s)
        assert list(elements) == sorted(elements, key=lambda T: T.rows)
        table = elements[0].table
        for k, T in enumerate(elements):
            counts = [row.count(v) for row in T.rows for v in range(1, c.m + 1)]
            key = sum(v * (s + 1) ** t for t, v in enumerate(counts))
            assert T.table is table and T.pos == k and table.index[key] == k
            content = T.content()
            assert table.wt[k] == tuple(content[i - 1] - content[i % c.m]
                                        for i in range(c.m))
            assert table.pr[k] == promotion_by_slides(T).pos
            assert table.pr_inv[k] == promotion_inverse_by_slides(T).pos
            for i in c.nodes:
                for arrays, up in ((table.e, True), (table.f, False)):
                    moved = _walk(T, i, up)
                    assert arrays[i][k] == (-1 if moved is None else moved.pos)
                assert table.stats[i][k] == (_string_length(T, i, True),
                                             _string_length(T, i, False))
                assert T.stats(i) == table.stats[i][k]


def _rectangle_size(m, r, s):
    """|B^{r,s}| by the hook-content formula."""
    num = den = 1
    for i in range(r):
        for j in range(s):
            num *= m + j - i
            den *= (r - i) + (s - j) - 1
    return num // den


def _promotion_shapes(n):
    """Every B^{r,s} of rank n with at most 500 elements, s = 0 included.  At
    n = 1 that bound alone allows s up to 499, and the slides cost O(s^3) on a
    row, so the rows stop at s = 40."""
    if n == 1:
        return [(1, s) for s in range(41)]
    shapes = []
    for r in range(1, n + 1):
        s = 0
        while _rectangle_size(n + 1, r, s) <= 500:
            shapes.append((r, s))
            s += 1
    return shapes


@pytest.mark.parametrize("n", range(1, 7))
def test_promotion_arrays_match_both_slides(n):
    c = CartanA(n)
    for r, s in _promotion_shapes(n):
        elements = generate(c, r, s)
        assert len(elements) == _rectangle_size(c.m, r, s)
        table = elements[0].table
        for k, T in enumerate(elements):
            assert table.pr[k] == promotion_by_slides(T).pos
            assert table.pr_inv[k] == promotion_inverse_by_slides(T).pos


def test_promotion_arrays_need_no_slides(monkeypatch):
    c = CartanA(3)
    want = generate(c, 2, 2)[0].table

    def no_slides(rows, m):
        raise AssertionError("a table array ran a jeu-de-taquin slide")

    monkeypatch.setattr(kr, "_demoted", no_slides)
    table = kr.KRTable(c, 2, 2)
    assert table.pr == want.pr and table.pr_inv == want.pr_inv
    for i in c.nodes:
        assert table.e[i] == want.e[i] and table.f[i] == want.f[i]
        assert table.stats[i] == want.stats[i]


def test_classical_arrays_need_no_rule_call(monkeypatch):
    # the signature rule is folded over the rows as column passes over all
    # elements at once; crystal.signature_rule is left to TensorElt
    wants = [generate(CartanA(n), r, s)[0].table for n, r, s in ((4, 2, 4), (2, 1, 40))]
    for want in wants:
        want.stats, want.pr_inv

    def no_rule(pairs):
        raise AssertionError("a table array called the signature rule")

    monkeypatch.setattr(crystal, "signature_rule", no_rule)
    monkeypatch.setattr(kr, "signature_rule", no_rule, raising=False)
    for want in wants:
        c, (r, s) = want.cartan, want.shape
        table = kr.KRTable(c, r, s)
        for i in c.classical_nodes:
            assert table.cl_e[i] == want.cl_e[i] and table.cl_f[i] == want.cl_f[i]
        for i in c.nodes:
            assert table.e[i] == want.e[i] and table.f[i] == want.f[i]
            assert table.stats[i] == want.stats[i]
        assert table.pr == want.pr and table.pr_inv == want.pr_inv


def test_generate_rows_match_combinations():
    for n in (1, 2, 3):
        c = CartanA(n)
        for s in range(61) if n < 3 else (*range(21), 60):
            # fresh tables above s = 20 keep the interned tables small
            elements = generate(c, 1, s) if s <= 20 else kr.KRTable(c, 1, s).elements
            want = list(combinations_with_replacement(range(1, c.m + 1), s))
            assert [T.rows[0] for T in elements] == want
            assert len(want) == _rectangle_size(c.m, 1, s)


def test_generate_rectangles_match_filtered_row_products():
    for n in (2, 3, 4):
        c = CartanA(n)
        for r in range(2, n + 1):
            for s in range(4 if n < 4 else 3):
                rows = list(combinations_with_replacement(range(1, c.m + 1), s))
                want = [rect for rect in product(rows, repeat=r)
                        if all(a < b for upper, lower in zip(rect, rect[1:])
                               for a, b in zip(upper, lower))]
                assert [T.rows for T in generate(c, r, s)] == want
                assert len(want) == _rectangle_size(c.m, r, s)


def test_content_is_a_count_of_the_entries():
    for n in range(1, 5):
        c = CartanA(n)
        for r, s in single_shapes(n):
            for T in generate(c, r, s):
                cells = [v for row in T.rows for v in row]
                assert T.content() == tuple(cells.count(v) for v in range(1, c.m + 1))


BEYOND_GRID = ([(1, 1, 300), (2, 1, 40)] + [(3, r, s) for r in (1, 2, 3) for s in range(7)]
               + [(4, 2, 4), (5, 4, 2), (6, 3, 2), (5, 4, 3)])


@pytest.mark.parametrize("n, r, s", BEYOND_GRID)
def test_classical_arrays_match_walks_beyond_the_grid(n, r, s):
    c = CartanA(n)
    elements = generate(c, r, s)
    table = elements[0].table
    for i in c.classical_nodes:
        for k, T in enumerate(elements):
            for arrays, walk in ((table.cl_e, classical_e), (table.cl_f, classical_f)):
                moved = walk(i, T)
                assert arrays[i][k] == (-1 if moved is None else moved.pos)
    fresh = kr.KRTable(c, r, s)
    if len(fresh.elements) > 1:
        # the last element, all letters as large as they go, lies below another
        del fresh.index[next(reversed(fresh.index))]
        with pytest.raises(ModelConsistencyError,
                           match=rf"a classical arrow left B\^\{{{r},{s}\}}"):
            fresh.cl_f


def _string_lengths(step: list[int]) -> list[int]:
    """For each index, how often `step` applies before it gives -1, walking
    each string once and iteratively: the oracle for eps and phi."""
    out = [-1] * len(step)
    for k in range(len(step)):
        path = []
        j = k
        while j >= 0 and out[j] < 0:
            path.append(j)
            assert len(path) <= len(step), "string does not terminate"
            j = step[j]
        length = -1 if j < 0 else out[j]
        for p in reversed(path):
            length += 1
            out[p] = length
    return out


@pytest.mark.parametrize("n, r, s", BEYOND_GRID + [(1, 1, 1200)])
def test_string_lengths_of_the_rule_match_walks_of_the_arrows(n, r, s):
    # eps and phi come from the signature rule over the rows, node 0 through
    # promotion; walking every string of the e and f arrays checks them
    table = generate(CartanA(n), r, s)[0].table
    for i in table.cartan.nodes:
        assert table.stats[i] == list(zip(_string_lengths(table.e[i]),
                                          _string_lengths(table.f[i]))), i


@pytest.mark.parametrize("arrays", [pytest.param("cl_e", id="cl_e-eps"),
                                    pytest.param("cl_f", id="cl_f-phi")])
def test_one_broken_arrow_fails_the_string_length_check(arrays):
    # an arrow of a fresh table that skips to another element of its string
    # (or leaves it) no longer lands where the rule's count is one less
    fresh = kr.KRTable(CartanA(3), 2, 2)
    fresh.pr  # from the intact arrows
    step = getattr(fresh, arrays)[2]
    k = next(k for k, j in enumerate(step) if j >= 0)
    step[k] = step[step[k]] if step[step[k]] >= 0 else -1
    with pytest.raises(ModelConsistencyError,
                       match=r"^node 2 string lengths of B\^\{2,2\} do not match its arrows$"):
        fresh.stats


def test_find_b_rs_on_a_long_row_needs_no_deep_stack():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        b = find_b_rs(CartanA(1), 1, 1200)
    finally:
        sys.setrecursionlimit(limit)
    assert b.rows == ((1,) * 1200,)


def test_generate_a_long_row_at_the_default_recursion_limit():
    elements = generate(CartanA(1), 1, 1200)
    assert len(elements) == 1201
    assert elements[0].rows == ((1,) * 1200,) and elements[-1].rows == ((2,) * 1200,)


def test_interned_tableaux_and_node_range():
    c = CartanA(2)
    T = parse_tableau(c, "12/23")
    assert RectTableau(CartanA(2), ((1, 2), (2, 3))) is T
    with pytest.raises(AttributeError):
        T.rows = ((1, 1), (2, 2))
    for bad in (-1, 3):
        for op in (T.e, T.f, lambda i: eps(T, i)):
            with pytest.raises(IndexError):
                op(bad)
        with pytest.raises(IndexError):
            TensorElt((T, T)).f(bad)


def test_a_fresh_table_interns_its_tableaux(monkeypatch):
    # with no table interned yet, the first tableau of B^{2,3} builds one
    monkeypatch.setattr(kr, "_TABLES", {})
    c = CartanA(3)
    table = RectTableau(c, ((1, 1, 2), (2, 3, 4))).table
    assert kr._TABLES == {(3, 2, 3): table}
    for k, T in enumerate(table.elements):
        assert T.table is table and T.pos == k and T.cartan is table.cartan
        assert RectTableau(c, T.rows) is T
        assert pickle.loads(pickle.dumps(T)) is T
    for name in ("cartan", "table", "pos"):
        with pytest.raises(AttributeError):
            setattr(T, name, None)


def test_a_table_holds_each_quantity_once():
    # row contents only as columns, string lengths only as the stats pairs
    # (node 0 reuses node 1's), promotion once, the Cartan datum on the table
    table = kr.KRTable(CartanA(3), 2, 2)
    size = len(table.elements)
    assert not [name for name in ("contents", "eps", "phi") if hasattr(table, name)]
    assert [len(col) for col in table.columns] == [size] * (2 * 4)
    assert all(table.stats[0][j] is table.stats[1][table.pr[j]] for j in range(size))
    assert table.pr_powers[1] is table.pr
    assert RectTableau.__slots__ == ("table", "pos") and not hasattr(kr, "_CARTANS")


def test_a_fresh_table_holds_no_rows():
    # a tableau is its table position; B^{1,2000} once held 2001 rows tuples,
    # 2,001,000 entries, about 31 MB traced
    tracemalloc.start()
    try:
        kr.KRTable(CartanA(1), 1, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_pickle_round_trips_return_the_interned_objects():
    c = CartanA(2)
    one, two, empty = elt(2, "13"), elt(2, "12/23"), parse_tableau(c, "-", 2)
    x = TensorElt((one, two, empty))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for T in (one, two, empty):
            assert pickle.loads(pickle.dumps(T, protocol)) is T
        y = pickle.loads(pickle.dumps(x, protocol))
        assert y == x and all(a is b for a, b in zip(y.factors, x.factors))
