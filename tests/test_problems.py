import re

import numpy as np
import pytest

from bsf import problems
from bsf.errors import DimensionError, DomainError, InsufficientFrontError
from bsf.pareto import SampleSet, nondominated_filter, save_sample
from bsf.problems import (
    FileProblem,
    ProblemDef,
    check_sizes,
    evaluate_objectives,
    feasible_pool,
    get_problem,
    make_training_set,
    problem_names,
)

SMALL_POOL = 4000  # plenty for two-variable fronts, fast for tests


# -- objective formulas -----------------------------------------------------


def test_schaffer_at_one():
    f, feasible = evaluate_objectives(get_problem("schaffer"), np.array([1.0]))
    np.testing.assert_allclose(f, [1.0, 1.0])
    assert feasible


def test_schaffer_endpoints():
    p = get_problem("schaffer")
    f0, _ = evaluate_objectives(p, np.array([0.0]))
    f2, _ = evaluate_objectives(p, np.array([2.0]))
    np.testing.assert_allclose(f0, [0.0, 4.0])
    np.testing.assert_allclose(f2, [4.0, 0.0])


def test_med3_vertex_is_own_anchor():
    f, feasible = evaluate_objectives(get_problem("med3"), np.array([1.0, 0.0, 0.0]))
    assert f[0] == 0.0
    np.testing.assert_allclose(f[1:], [1.0, 1.0])
    assert feasible


def test_constrex_constraint_violation():
    f, feasible = evaluate_objectives(get_problem("constrex"), np.array([0.5, 0.0]))
    np.testing.assert_allclose(f, [0.5, 2.0])
    assert not feasible  # g1 = x2 + 9 x1 - 6 = -1.5


def test_osyczka2_feasible_point():
    x = np.array([5.0, 1.0, 5.0, 0.0, 5.0, 10.0])
    f, feasible = evaluate_objectives(get_problem("osyczka2"), x)
    assert feasible
    expected_f1 = -25 * 9 - 1 - 16 - 16 - 16
    assert f[0] == pytest.approx(expected_f1)
    assert f[1] == pytest.approx(176.0)


def test_viennet2_value():
    f, _ = evaluate_objectives(get_problem("viennet2"), np.array([0.0, 0.0]))
    np.testing.assert_allclose(
        f, [2.0 + 1.0 / 13.0 + 3.0, 9.0 / 36.0 + 4.0 / 8.0 - 17.0, 1.0 / 175.0 - 13.0]
    )


def test_out_of_bounds_rejected():
    with pytest.raises(DomainError):
        evaluate_objectives(get_problem("constrex"), np.array([0.05, 0.0]))


def test_wrong_variable_count_rejected():
    with pytest.raises(DimensionError, match="^schaffer expects 1 variables, got 2$"):
        evaluate_objectives(get_problem("schaffer"), np.array([1.0, 2.0]))


def test_a_batch_gives_each_rows_objectives():
    problem = get_problem("constrex")
    X = np.array([[0.5, 1.0], [1.0, 0.0], [0.2, 4.0]])
    F, feasible = evaluate_objectives(problem, X)
    assert F.shape == (3, 2) and feasible.dtype == bool
    assert feasible.tolist() == [False, True, False]
    for x, f, ok in zip(X, F, feasible):
        f_alone, ok_alone = evaluate_objectives(problem, x)
        assert np.array_equal(f_alone, f) and ok_alone is bool(ok)


def test_unknown_problem_lists_names():
    with pytest.raises(KeyError, match="schaffer"):
        get_problem("nope")
    assert "med5" in problem_names()


def test_medm_prefix():
    p = get_problem("medM:4")
    assert p.n_objectives == 4 and p.n_vars == 4


@pytest.mark.parametrize("name", ["medM:x", "medM:", "medM:4.5"])
def test_medm_without_integer_m_names_the_form(name):
    with pytest.raises(KeyError) as info:
        get_problem(name)
    message = info.value.args[0]
    assert message.startswith(f"problem {name!r}: medM:<M> needs an integer M; valid names: ")
    assert "schaffer" in message


# -- the full-front draw: make_training_set's validation set -----------------


def test_schaffer_validation_lies_on_curve():
    _, S = make_training_set(get_problem("schaffer"), (1, 2), seed=2, validation_size=50,
                             with_solutions=True)
    assert S.n == 50
    s = S.solutions[:, 0]
    residual = np.abs(S.objectives - np.column_stack([s**2, (s - 2) ** 2]))
    assert residual.max() <= 1e-12


def test_med5_validation_is_nondominated_fixpoint():
    _, S = make_training_set(get_problem("med5"), (1, 2), seed=3, validation_size=40)
    assert S.n == 40
    assert nondominated_filter(S).n == S.n


def test_pool_validation_is_nondominated_fixpoint():
    _, S = make_training_set(get_problem("constrex"), (1, 3), seed=4, validation_size=25,
                             pool_seed=11)
    assert S.n == 25
    assert nondominated_filter(S).n == S.n


def test_pool_is_feasible_and_cached():
    p = get_problem("constrex")
    X1, F1 = feasible_pool(p, size=SMALL_POOL, seed=5)
    X2, _ = feasible_pool(p, size=SMALL_POOL, seed=5)
    assert X1 is X2
    assert np.all(X1[:, 1] + 9 * X1[:, 0] - 6 >= 0)
    assert np.all(-X1[:, 1] + 9 * X1[:, 0] - 1 >= 0)
    assert X1.shape == (SMALL_POOL, 2) and F1.shape == (SMALL_POOL, 2)


def _stacked_pool(problem, size, seed):
    """The pool as `feasible_pool` first built it: per-column lists stacked
    into each batch, every feasible row of a batch evaluated, then the
    batches stacked and cut to `size`. Returns (X, F, batches drawn)."""
    rng = np.random.default_rng(seed)
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    n = max(size, 1 << 16)
    xs, fs, have = [], [], 0
    while have < size:
        cols = []
        for j in range(problem.n_vars):
            strata = (rng.permutation(n) + rng.random(n)) / n
            cols.append(lo[j] + strata * (hi[j] - lo[j]))
        X = np.column_stack(cols)
        feasible = np.ones(n, dtype=bool)
        for g in problem.constraints:
            feasible &= g(X) >= 0.0
        X = X[feasible]
        xs.append(X)
        fs.append(problem.objectives(X))
        have += X.shape[0]
    return np.vstack(xs)[:size], np.vstack(fs)[:size], len(xs)


# pools small enough that the constrained problems take several batches, the
# last one cut short; the unconstrained ones always take one. Above 2**16
# rows a batch is the pool size, and dividing by it is no longer exact.
@pytest.mark.parametrize(
    "name, size, batches",
    [("osyczka2", 5000, 3), ("constrex", 70_000, 2), ("schaffer", 70_000, 1), ("viennet2", 70_000, 1)],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_pool_bytes_pin_the_draw(monkeypatch, name, size, batches, seed):
    problem = get_problem(name)
    X_ref, F_ref, drawn = _stacked_pool(problem, size, seed)
    assert drawn == batches
    lhs_batch = problems._lhs_batch
    calls = []

    def counted(*args):
        calls.append(args[2].shape)
        return lhs_batch(*args)

    monkeypatch.setattr(problems, "_lhs_batch", counted)
    monkeypatch.setattr(problems, "_POOL_CACHE", {})
    X, F = feasible_pool(problem, size=size, seed=seed)
    assert X.shape == (size, problem.n_vars) and F.shape == (size, problem.n_objectives)
    assert X.flags.c_contiguous and F.flags.c_contiguous
    assert X.tobytes() == X_ref.tobytes()
    assert F.tobytes() == F_ref.tobytes()
    assert calls == [(problem.n_vars, max(size, 1 << 16))] * drawn


@pytest.mark.parametrize("n", [1, 2, 7, 1 << 16, 100_000])
def test_shuffled_float_ranks_are_the_permutation(n):
    # feasible_pool shuffles the float ranks 0.0 .. n-1 instead of calling permutation(n)
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    ranks = np.arange(n, dtype=float)
    b.shuffle(ranks)
    np.testing.assert_array_equal(ranks, a.permutation(n))
    assert a.random() == b.random()  # and leaves the stream where it did


@pytest.mark.parametrize("size", [0, -5])
def test_pool_size_below_one_is_rejected_before_any_draw(monkeypatch, size):
    def no_draw(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(problems, "_lhs_batch", no_draw)
    with pytest.raises(ValueError, match="^pool size must be at least 1$"):
        feasible_pool(get_problem("constrex"), size=size, seed=5)


# -- training sets -----------------------------------------------------------------


@pytest.mark.parametrize(
    "name,sizes,total",
    [("med3", (1, 2, 1), 10), ("med5", (1, 2, 1), 35), ("schaffer", (1, 3), 5)],
)
def test_training_set_totals(name, sizes, total):
    training, validation = make_training_set(get_problem(name), sizes, seed=0, validation_size=50)
    assert sum(S.n for S in training.values()) == total
    assert validation.n == 50


def test_training_faces_have_sized_samples():
    training, _ = make_training_set(get_problem("med3"), (1, 2, 1), seed=1, validation_size=10)
    assert {f: S.n for f, S in training.items()} == {
        (0,): 1,
        (1,): 1,
        (2,): 1,
        (0, 1): 2,
        (0, 2): 2,
        (1, 2): 2,
        (0, 1, 2): 1,
    }


def test_training_vertex_faces_hold_optima():
    training, _ = make_training_set(get_problem("med3"), (1, 2, 1), seed=2, validation_size=10)
    for j in range(3):
        assert training[(j,)].objectives[0, j] == 0.0


def test_training_reproducible_and_seed_sensitive():
    a, va = make_training_set(get_problem("med3"), (1, 2, 1), seed=3, validation_size=20)
    b, vb = make_training_set(get_problem("med3"), (1, 2, 1), seed=3, validation_size=20)
    c, _ = make_training_set(get_problem("med3"), (1, 2, 1), seed=4, validation_size=20)
    np.testing.assert_array_equal(va.objectives, vb.objectives)
    for face in a:
        np.testing.assert_array_equal(a[face].objectives, b[face].objectives)
    assert not np.array_equal(a[(0, 1)].objectives, c[(0, 1)].objectives)


def test_training_graph_mode_keeps_solutions():
    training, validation = make_training_set(
        get_problem("med5"), (1, 2, 1), seed=5, validation_size=10, with_solutions=True
    )
    assert validation.solutions.shape == (10, 5)
    assert training[(0,)].solutions.shape == (1, 5)
    assert validation.ambient().shape == (10, 10)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((), "sizes must not be empty"),
        ((1, -2, 1), "sizes must be nonnegative: N2 is -2"),
        ((1, 2, 1, -1), "sizes must be nonnegative: N4 is -1"),
        ((0, 2, 1), "sizes must start with at least one vertex point: N1 is 0"),
        ((-1, 2), "sizes must be nonnegative: N1 is -1"),
    ],
)
def test_bad_sizes_are_rejected_by_name(tmp_path, sizes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_sizes(sizes)
    front = tmp_path / "front.csv"
    save_sample(SampleSet(np.random.default_rng(9).uniform(size=(20, 2))), front)
    for problem in (get_problem("med3"), get_problem(f"file:{front}")):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_training_set(problem, sizes, seed=0, validation_size=5)
    check_sizes((1, 0, 3))


def test_training_rejects_multiple_vertex_points_on_analytic():
    with pytest.raises(InsufficientFrontError):
        make_training_set(get_problem("med3"), (2, 2, 1), seed=0, validation_size=5)


def test_brute_force_training_disjoint():
    p = get_problem("constrex")
    feasible_pool(p, seed=6)  # warm the cache used below
    training, validation = make_training_set(
        p, (1, 4), seed=6, validation_size=40, pool_seed=6
    )
    rows = [tuple(r) for S in training.values() for r in S.objectives]
    rows += [tuple(r) for r in validation.objectives]
    assert len(rows) == len(set(rows))
    _, F = feasible_pool(p, seed=6)
    assert training[(0,)].objectives[0, 0] == F[:, 0].min()
    assert training[(1,)].objectives[0, 1] == F[:, 1].min()


def test_file_problem_split(tmp_path):
    rng = np.random.default_rng(7)
    t = rng.dirichlet(np.ones(2), size=60)
    F = np.column_stack([4 * t[:, 0] ** 2, 4 * (1 - t[:, 0]) ** 2])
    path = tmp_path / "front.csv"
    save_sample(SampleSet(F), path)
    problem = get_problem(f"file:{path}")
    assert isinstance(problem, FileProblem)
    training, validation = make_training_set(problem, (1, 3), seed=8, validation_size=20)
    assert sum(S.n for S in training.values()) == 5
    assert validation.n == 20
    taken = {tuple(r) for S in training.values() for r in S.objectives}
    assert all(tuple(r) not in taken for r in validation.objectives)


def _scripted_problem(draws):
    """Two objectives equal to the two variables; the sampler hands out `draws` in turn."""
    draws = iter(draws)
    return ProblemDef("scripted", 2, 2, np.array([[0.0, 1.0]] * 2), lambda X: X.copy(),
                      pareto_set_sampler=lambda face, n, rng: np.array(next(draws), dtype=float))


@pytest.mark.parametrize("last, redrawn", [([[0.9, 0.1]], True), ([[0.8, 0.8]], False)])
def test_analytic_face_sample_checks_every_redraw(last, redrawn):
    # (0.6, 0.6) is dominated by (0.5, 0.5), and so is every redraw but the 20th's
    draws = [[[0.1, 0.9], [0.5, 0.5], [0.6, 0.6]]] + [[[0.7, 0.7]]] * 19 + [last]
    rng = np.random.default_rng(0)
    if redrawn:
        sample = problems._analytic_face_sample(_scripted_problem(draws), (0, 1), 3, rng, True)
        np.testing.assert_array_equal(sample.objectives, [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        np.testing.assert_array_equal(sample.solutions, sample.objectives)
    else:
        with pytest.raises(InsufficientFrontError, match="could not draw 3 non-dominated points"):
            problems._analytic_face_sample(_scripted_problem(draws), (0, 1), 3, rng, False)


def test_analytic_face_sample_on_a_dominance_chain_raises():
    # on objectives (x, x) the least x dominates every other draw
    problem = ProblemDef("chain", 1, 2, np.array([[0.0, 1.0]]), lambda X: np.hstack([X, X]),
                         pareto_set_sampler=lambda face, n, rng: rng.uniform(size=(n, 1)))
    with pytest.raises(InsufficientFrontError, match="could not draw 3 non-dominated points on face of chain"):
        problems._analytic_face_sample(problem, (0, 1), 3, np.random.default_rng(1), False)


def test_split_errors_name_what_ran_out(monkeypatch):
    corners = np.array([[0.0, 1.0], [1.0, 0.0]])
    # a file front of only its two corners: the vertices take both
    with pytest.raises(InsufficientFrontError, match="^no points left for validation$"):
        make_training_set(FileProblem("corners", SampleSet(corners)), (1,), seed=0)
    # one more point is the only one on the edge: two cannot be drawn there
    middle = SampleSet(np.vstack([corners, [[0.5, 0.5]]]))
    with pytest.raises(InsufficientFrontError,
                       match=r"^middle: face \(0, 1\) front has only 1 unused points, need 2$"):
        make_training_set(FileProblem("middle", middle), (1, 2), seed=0)
    # a pool of the two corners and a dominated point: nothing is left to validate on
    monkeypatch.setattr(problems, "_FRONT_CACHE", {})
    monkeypatch.setattr(problems, "feasible_pool",
                        lambda problem, seed: (np.zeros((3, 1)), np.vstack([corners, [[2.0, 2.0]]])))
    pool_problem = ProblemDef("tiny-pool", 1, 2, np.array([[0.0, 1.0]]), lambda X: X)
    with pytest.raises(InsufficientFrontError, match="^tiny-pool: no validation points left$"):
        make_training_set(pool_problem, (1,), seed=0)


# -- golden splits: exact rows, so a refactor of the split loop is checked bit for bit


def test_pool_split_golden_rows():
    p = get_problem("constrex")
    training, validation = make_training_set(
        p, (1, 3), seed=6, validation_size=5, with_solutions=True, pool_seed=6
    )
    X, F = feasible_pool(p, seed=6)
    expected = {(0,): [30501], (1,): [5004], (0, 1): [42762, 49900, 52040]}
    assert list(training) == list(expected)
    for face, rows in expected.items():
        np.testing.assert_array_equal(training[face].objectives, F[rows])
        np.testing.assert_array_equal(training[face].solutions, X[rows])
    rows = [98209, 43553, 63496, 35485, 35397]
    np.testing.assert_array_equal(validation.objectives, F[rows])
    np.testing.assert_array_equal(validation.solutions, X[rows])


def test_file_split_golden_rows():
    rng = np.random.default_rng(9)
    X = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=57)])
    F = get_problem("med3").objectives(X)
    # ten dominated copies, which only the validation draw can take
    F = np.vstack([F, F[3:13] + 0.25])
    X = np.vstack([X, X[3:13]])
    sample = SampleSet(F, X)
    training, validation = make_training_set(
        FileProblem("golden", sample), (1, 2, 1), seed=8, validation_size=12
    )
    expected = {
        (0,): [0], (1,): [1], (2,): [2],
        (0, 1): [24, 37], (0, 2): [12, 50], (1, 2): [32, 51],
        (0, 1, 2): [53],
    }
    assert list(training) == list(expected)
    for face, rows in expected.items():
        np.testing.assert_array_equal(training[face].objectives, F[rows])
        np.testing.assert_array_equal(training[face].solutions, X[rows])
    rows = [5, 8, 18, 23, 25, 27, 33, 35, 36, 63, 64, 66]
    np.testing.assert_array_equal(validation.objectives, F[rows])
    np.testing.assert_array_equal(validation.solutions, X[rows])


@pytest.mark.parametrize("size", [0, -3])
def test_empty_validation_is_rejected_before_any_pool(monkeypatch, size):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was drawn")

    monkeypatch.setattr(problems, "feasible_pool", no_pool)
    sample = SampleSet(np.vstack([np.eye(3), np.full((4, 3), 0.5)]))
    for problem in (get_problem("med3"), get_problem("osyczka2"), FileProblem("f", sample)):
        with pytest.raises(ValueError, match="validation size must be at least 1"):
            make_training_set(problem, (1, 2), seed=0, validation_size=size)


def test_more_sizes_than_objectives_are_rejected_before_any_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was drawn")

    monkeypatch.setattr(problems, "feasible_pool", no_pool)
    front = tmp_path / "front.csv"
    save_sample(SampleSet(np.random.default_rng(9).uniform(size=(20, 2))), front)
    cases = [
        (get_problem("med3"), (1, 2, 1, 5), "sizes has 4 entries, but med3 has 3 objectives"),
        (get_problem("osyczka2"), (1, 3, 1), "sizes has 3 entries, but osyczka2 has 2 objectives"),
        (get_problem(f"file:{front}"), (1, 3, 1), "sizes has 3 entries, but front has 2 objectives"),
    ]
    for problem, sizes, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_training_set(problem, sizes, seed=0, validation_size=5)
        check_sizes(sizes[: problem.n_objectives], problem)  # one size per objective is fine
