import random

import pytest

from sparsecore import (
    Clause,
    Formula,
    Hypergraph,
    excess_formula,
    excess_hypergraph,
    from_dimacs,
    from_edge_list,
    induced_formula,
    is_full,
    is_k_dense,
    to_dimacs,
    to_edge_list,
)


def test_clause_normalization_and_parts():
    cl = Clause((3, -1, 2))
    assert cl.literals == (-1, 2, 3)
    assert cl.variables == (1, 2, 3)
    assert cl.signs == (False, True, True)
    assert Clause.from_parts((1, 2, 3), (False, True, True)) == cl


def test_clause_rejects_bad_literals():
    with pytest.raises(ValueError):
        Clause((1, 0, 2))
    with pytest.raises(ValueError):
        Clause((1, -1, 2))


def test_empty_clauses_and_edges_are_rejected():
    # an empty item has no variable: its key would equal the key without it
    with pytest.raises(ValueError, match="at least one literal"):
        Clause(())
    with pytest.raises(ValueError, match="at least one literal"):
        Formula(3, [(1, 2, 3), ()])
    with pytest.raises(ValueError, match="at least one vertex"):
        Hypergraph(3, [(1, 2), ()])


def test_one_vertex_edges_are_rejected():
    # such an edge is monochromatic under every coloring, so it fails alone,
    # while k-core peeling would drop it with its low-degree vertex
    with pytest.raises(ValueError, match="one vertex"):
        Hypergraph(3, [(1,)])
    with pytest.raises(ValueError, match="one vertex"):
        Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (2,)])
    for text in ("3 1 1\n2\n", "3 1 0\n", "3 0 0\n"):
        with pytest.raises(ValueError, match="at least two vertices"):
            from_edge_list(text)


def test_formula_rejects_out_of_range_variable():
    with pytest.raises(ValueError):
        Formula(2, [(1, 2, 3)])


def test_excess_formula_examples(f_pair):
    assert excess_formula(f_pair) == 1
    assert excess_formula(Formula(3, [(1, 2, 3)])) == -1
    assert excess_formula(Formula(5)) == -5


def test_excess_formula_rejects_mixed_widths():
    with pytest.raises(ValueError):
        excess_formula(Formula(3, [(1, 2, 3), (1, -2)]))


def test_excess_hypergraph_examples(k4):
    assert excess_hypergraph(k4, 2) == 2
    assert excess_hypergraph(Hypergraph(3, [(1, 2, 3)]), 3) == -1
    assert excess_hypergraph(Hypergraph(3, [(1, 2), (2, 3), (1, 3)]), 2) == 0
    with pytest.raises(ValueError):
        excess_hypergraph(Hypergraph(3, [(1, 2), (1, 2, 3)]), 2)


def test_is_full_examples(f_pair):
    assert is_full(f_pair)
    assert not is_full(Formula(3, [(1, 2, 3)]))
    assert not is_full(Formula(0))
    # isolated variable spoils fullness
    assert not is_full(Formula(4, [(1, 2, 3), (-1, -2, -3)]))


def test_is_k_dense_examples(k4):
    assert is_k_dense(k4, 3)
    assert not is_k_dense(Hypergraph(3, [(1, 2), (2, 3)]), 2)
    assert not is_k_dense(Hypergraph(5), 1)
    with pytest.raises(ValueError):
        is_k_dense(k4, 0)


def test_excess_additivity_on_disjoint_unions():
    rng = random.Random(11)
    from oracle_utils import random_formula

    for _ in range(50):
        a = random_formula(rng, 4, 3, rng.randint(1, 4))
        b = random_formula(rng, 4, 3, rng.randint(1, 4))
        shifted = [tuple(l + 4 if l > 0 else l - 4 for l in cl.literals) for cl in b.clauses]
        union = Formula(8, [cl.literals for cl in a.clauses] + shifted)
        assert excess_formula(union) == excess_formula(a) + excess_formula(b)


def test_induced_formula_relabels_densely():
    dense, support = induced_formula([Clause((2, -5, 9))])
    assert support == (2, 5, 9)
    assert dense.order == 3
    assert dense.sorted_clauses()[0].literals == (1, -2, 3)


def test_dimacs_round_trip(f_pair, complete3):
    for formula in (f_pair, complete3, Formula(6, [(1, -4, 6)]), Formula(4)):
        text = to_dimacs(formula)
        assert from_dimacs(text) == formula
    parsed = from_dimacs("c comment\np cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    assert parsed == f_pair


def test_dimacs_rejects_malformed():
    with pytest.raises(ValueError):
        from_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(ValueError):
        from_dimacs("p cnf 3 2\n1 2 3 0\n")  # clause count mismatch
    with pytest.raises(ValueError):
        from_dimacs("p cnf 3 1\n1 2 3\n")  # missing terminator
    with pytest.raises(ValueError):
        from_dimacs("p cnf 3 1\n1 2 3 0\n0\n")  # empty clause


def test_edge_list_round_trip(k4):
    text = to_edge_list(k4, 2)
    back, r = from_edge_list(text)
    assert back == k4 and r == 2
    empty = Hypergraph(5)
    back, r = from_edge_list(to_edge_list(empty, 3))
    assert back == empty and r == 3
    with pytest.raises(ValueError):
        to_edge_list(empty)  # needs explicit r when empty


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        from_edge_list("")
    with pytest.raises(ValueError):
        from_edge_list("4 2 1\n1 2 3\n")  # edge size mismatch


def test_edge_list_skips_indented_comments(k4):
    text = to_edge_list(k4, 2)
    head, *edges = text.splitlines()
    indented = "\n".join(["  # note", head, "\t# between", *edges, "   #"]) + "\n"
    assert from_edge_list(indented) == (k4, 2)
    assert from_edge_list("  # only a comment\n" * 2 + "3 2 0\n") == (Hypergraph(3), 2)
