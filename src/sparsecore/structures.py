"""Immutable signed CNF formulas and r-uniform hypergraphs.

Variables and vertices are labeled 1..order.  A literal is a nonzero
integer: +v for the variable itself, -v for its negation.  All types are
value objects: hashable, comparable and safe to share across threads.

``MODELS`` maps each random model's name to its type; every other module
reads a model's ``signed`` bit and its items, ``rows()``, from the type.

The ranking parameter used throughout is the *excess*
``(width - 1) * size - order``: the only quantity in which the small
obstructions of sparse random instances are finite in number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


class BudgetExceededError(RuntimeError):
    """A computation would exceed its configured search budget or cap."""


def _as_edge(vertices: Iterable[int]) -> tuple[int, ...]:
    edge = tuple(sorted(int(v) for v in vertices))
    if any(v < 1 for v in edge):
        raise ValueError(f"vertex labels must be >= 1, got {edge}")
    if len(set(edge)) != len(edge):
        raise ValueError(f"repeated vertex in edge {edge}")
    return edge


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals over distinct variables, sorted by variable."""

    literals: tuple[int, ...]

    def __post_init__(self):
        lits = tuple(sorted((int(l) for l in self.literals), key=abs))
        object.__setattr__(self, "literals", lits)
        if any(l == 0 for l in lits):
            raise ValueError("literal 0 is not allowed")
        variables = [abs(l) for l in lits]
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable in clause {lits}")

    @classmethod
    def from_parts(cls, variables: Iterable[int], signs: Iterable[bool]) -> "Clause":
        variables = tuple(variables)
        signs = tuple(signs)
        if len(variables) != len(signs):
            raise ValueError("variables and signs must align")
        return cls(tuple(v if s else -v for v, s in zip(variables, signs)))

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(abs(l) for l in self.literals)

    @property
    def signs(self) -> tuple[bool, ...]:
        return tuple(l > 0 for l in self.literals)

    @property
    def width(self) -> int:
        return len(self.literals)

    def __str__(self):
        return "(" + " ".join(f"{l:+d}" for l in self.literals) + ")"


def _as_clause(obj) -> Clause:
    return obj if isinstance(obj, Clause) else Clause(tuple(obj))


@dataclass(frozen=True)
class Formula:
    """A duplicate-free set of clauses over variables 1..order."""

    model = "sat"  # the random model's name, a key of MODELS
    signed = True  # items carry signs: a placement also chooses them

    order: int
    clauses: frozenset[Clause]

    def __init__(self, order: int, clauses: Iterable = ()):
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "clauses", frozenset(_as_clause(c) for c in clauses))
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        for cl in self.clauses:
            if cl.variables and cl.variables[-1] > self.order:
                raise ValueError(f"clause {cl} uses a variable beyond order {self.order}")

    @property
    def size(self) -> int:
        return len(self.clauses)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for cl in self.clauses for v in cl.variables)

    def sorted_clauses(self) -> tuple[Clause, ...]:
        return tuple(sorted(self.clauses, key=lambda c: c.literals))

    def rows(self) -> list[tuple[int, ...]]:
        """The clauses as literal tuples, in ``sorted_clauses()`` order."""
        return sorted(cl.literals for cl in self.clauses)

    def width(self) -> int | None:
        """Uniform clause width, None when empty.  Raises on mixed widths."""
        widths = {cl.width for cl in self.clauses}
        if not widths:
            return None
        if len(widths) > 1:
            raise ValueError(f"mixed clause widths {sorted(widths)}")
        return widths.pop()

    def __str__(self):
        body = " ".join(str(c) for c in self.sorted_clauses())
        return f"Formula(n={self.order}, m={self.size}): {body}"


@dataclass(frozen=True)
class Hypergraph:
    """A duplicate-free set of edges (vertex sets) over vertices 1..order."""

    model = "hypergraph"
    signed = False

    order: int
    edges: frozenset[tuple[int, ...]]

    def __init__(self, order: int, edges: Iterable = ()):
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "edges", frozenset(_as_edge(e) for e in edges))
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        for e in self.edges:
            if e and e[-1] > self.order:
                raise ValueError(f"edge {e} uses a vertex beyond order {self.order}")

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def sorted_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.edges))

    def rows(self) -> list[tuple[int, ...]]:
        """The edges as vertex tuples, in ``sorted_edges()`` order."""
        return sorted(self.edges)

    def width(self) -> int | None:
        widths = {len(e) for e in self.edges}
        if not widths:
            return None
        if len(widths) > 1:
            raise ValueError(f"mixed edge sizes {sorted(widths)}")
        return widths.pop()

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.order + 1)}
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def __str__(self):
        body = " ".join("{" + ",".join(map(str, e)) + "}" for e in self.sorted_edges())
        return f"Hypergraph(n={self.order}, m={self.size}): {body}"


MODELS = {"sat": Formula, "hypergraph": Hypergraph}


def sign_factor(model: str, order: int) -> int:
    """2^order for a signed model, whose placements also choose signs; else 1."""
    return 2 ** order if MODELS[model].signed else 1


# ---------------------------------------------------------------------------
# excess and the structural predicates

def excess_formula(formula: Formula) -> int:
    """(width-1)*size - order; the empty formula on t variables has excess -t."""
    if formula.size == 0:
        return -formula.order
    r = formula.width()
    return (r - 1) * formula.size - formula.order


def excess_hypergraph(graph: Hypergraph, r: int) -> int:
    """(r-1)*size - order.  Rejects edges whose size differs from r."""
    for e in graph.edges:
        if len(e) != r:
            raise ValueError(f"edge {e} does not have size {r}")
    return (r - 1) * graph.size - graph.order


def is_full(formula: Formula) -> bool:
    """True iff nonempty and every variable occurs both positively and negatively."""
    if formula.size == 0:
        return False
    seen = set()
    for cl in formula.clauses:
        seen.update(cl.literals)
    return all(v in seen and -v in seen for v in range(1, formula.order + 1))


def is_k_dense(graph: Hypergraph, k: int) -> bool:
    """True iff nonempty and every vertex lies in at least k edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if graph.size == 0:
        return False
    return all(d >= k for d in graph.degrees().values())


def full_excess_bound(r: int, order: int) -> Fraction:
    """Lower bound (r-2)*order/r on the excess of any full formula."""
    return Fraction((r - 2) * order, r)


def dense_excess_bound(r: int, k: int, order: int) -> Fraction:
    """Lower bound ((k-1)(r-1)-1)*order/r on the excess of any k-dense hypergraph."""
    return Fraction(((k - 1) * (r - 1) - 1) * order, r)


# ---------------------------------------------------------------------------
# dense relabelings of substructures

def dense_relabel(items) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Relabel int-tuple items (clauses of signed literals, or edges) onto 1..t.

    ``abs()`` of an entry is its variable.  Returns the original labels,
    ascending (position i-1 holds the original label of new variable i),
    and the relabeled items, signs kept, sorted.
    """
    support = sorted({abs(x) for item in items for x in item})
    rank = {v: i for i, v in enumerate(support, 1)}
    return tuple(support), sorted(tuple(rank[x] if x > 0 else -rank[-x] for x in item)
                                  for item in items)


def induced_formula(clauses: Iterable[Clause]) -> tuple[Formula, tuple[int, ...]]:
    """Relabel the support of ``clauses`` densely as 1..t.

    Returns the relabeled formula together with the original variable
    labels; see dense_relabel.
    """
    support, relabeled = dense_relabel([_as_clause(c).literals for c in clauses])
    return Formula(len(support), relabeled), support


def induced_hypergraph(edges: Iterable[Iterable[int]]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Relabel the support of ``edges`` densely as 1..t; see induced_formula."""
    support, relabeled = dense_relabel([_as_edge(e) for e in edges])
    return Hypergraph(len(support), relabeled), support


# ---------------------------------------------------------------------------
# file formats: DIMACS CNF and plain edge lists

def to_dimacs(formula: Formula) -> str:
    lines = [f"p cnf {formula.order} {formula.size}"]
    for cl in formula.sorted_clauses():
        lines.append(" ".join(str(l) for l in cl.literals) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Formula:
    order = size = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            order, size = int(parts[2]), int(parts[3])
            continue
        if order is None:
            raise ValueError("clause data before DIMACS header")
        tokens.extend(int(tok) for tok in line.split())
    if order is None:
        raise ValueError("missing DIMACS header")
    clauses, current = [], []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(Clause(tuple(current)))
                current = []
        else:
            current.append(tok)
    if current:
        raise ValueError("last clause is not 0-terminated")
    if len(clauses) != size:
        raise ValueError(f"header says {size} clauses, found {len(clauses)}")
    return Formula(order, clauses)


def to_edge_list(graph: Hypergraph, r: int | None = None) -> str:
    if r is None:
        r = graph.width()
        if r is None:
            raise ValueError("edge size r is required for an empty hypergraph")
    lines = [f"{graph.order} {r} {graph.size}"]
    for e in graph.sorted_edges():
        if len(e) != r:
            raise ValueError(f"edge {e} does not have size {r}")
        lines.append(" ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> tuple[Hypergraph, int]:
    lines = [l for l in map(str.strip, text.splitlines()) if l and not l.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad edge-list header: {lines[0]!r}")
    order, r, size = (int(x) for x in head)
    edges = []
    for line in lines[1:]:
        edge = tuple(int(x) for x in line.split())
        if len(edge) != r:
            raise ValueError(f"edge {edge} does not have size {r}")
        edges.append(edge)
    if len(edges) != size:
        raise ValueError(f"header says {size} edges, found {len(edges)}")
    return Hypergraph(order, edges), r
