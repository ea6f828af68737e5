"""EG insertion, Coxeter-Knuth classes, Little moves, transition sides."""

import inspect

import pytest

from stansym import tableaux
from stansym.partition import count_standard_tableaux
from stansym.permutation import Permutation, is_reduced, symmetric_group
from stansym.tableaux import (
    MarkedWord,
    Tableau,
    coxeter_knuth_classes,
    eg_insert,
    eg_tableaux_by_shape,
    little_move,
    little_move_backward,
    little_move_chain,
    little_step,
    transition_sides,
    word_descents,
)


def is_row_strict(T):
    return all(row[j] < row[j + 1] for row in T.rows for j in range(len(row) - 1))


def is_column_strict(T):
    return all(
        T.rows[i][j] < T.rows[i + 1][j]
        for i in range(len(T.rows) - 1)
        for j in range(len(T.rows[i + 1]))
    )


def is_standard(T):
    entries = sorted(x for row in T.rows for x in row)
    return is_row_strict(T) and is_column_strict(T) and entries == list(range(1, len(entries) + 1))


def reading_word(T):
    """Rows read left to right, bottom row first."""
    return tuple(x for row in reversed(T.rows) for x in row)


def is_eg_tableau(T, w):
    """True iff T is row- and column-strict and reads to a reduced word for w."""
    if not (is_row_strict(T) and is_column_strict(T)):
        return False
    word = reading_word(T)
    n = max(w.n, max(word, default=0) + 1)
    return len(word) == w.length() and Permutation.from_word(word, n) == w


def marked_reduced_words(n):
    for w in symmetric_group(n):
        for word in w.reduced_words():
            for a in range(1, len(word) + 1):
                if is_reduced(word[:a - 1] + word[a:]):
                    yield MarkedWord(word, a)


def test_eg_insert_example():
    P, Q = eg_insert((2, 1, 2, 3, 2))
    assert P == Tableau([[1, 2, 3], [2, 3]])
    assert Q == Tableau([[1, 3, 4], [2, 5]])
    assert is_row_strict(P) and is_column_strict(P)
    assert is_standard(Q)


def test_eg_insert_rejects_non_reduced():
    with pytest.raises(ValueError):
        eg_insert((1, 1))


def test_eg_insert_staircase():
    word = (1, 2, 1, 3, 2, 1)
    P, _ = eg_insert(word)
    assert P.shape == (3, 2, 1)


def test_descents_transfer_to_recording_tableau():
    for w in symmetric_group(4):
        for word in w.reduced_words():
            _, Q = eg_insert(word, 4)
            assert word_descents(word) == Q.descent_set()


def test_p_tableau_is_eg_tableau_of_inverse_word_group_element():
    for w in symmetric_group(4):
        for word in w.reduced_words():
            P, _ = eg_insert(word, 4)
            assert is_eg_tableau(P, Permutation.from_word(word, 4))


def test_insertion_is_injective_on_reduced_words():
    for w in symmetric_group(4):
        images = {eg_insert(word, 4) for word in w.reduced_words()}
        assert len(images) == len(w.reduced_words())


def test_reduced_word_count_splits_by_shape():
    for w in symmetric_group(4):
        total = sum(
            len(tabs) * count_standard_tableaux(shape)
            for shape, tabs in eg_tableaux_by_shape(w).items()
        )
        assert total == len(w.reduced_words())


def test_coxeter_knuth_classes_are_p_fibers():
    for w in symmetric_group(4):
        fibers = {}
        for word in w.reduced_words():
            P, _ = eg_insert(word, 4)
            fibers.setdefault(P, set()).add(word)
        assert set(map(frozenset, fibers.values())) == set(coxeter_knuth_classes(w))


def test_little_move_chain_example():
    chain = little_move_chain(MarkedWord((2, 1, 3, 4, 3, 2, 1), 5))
    assert [c.word for c in chain] == [
        (2, 1, 3, 4, 3, 2, 1),
        (2, 1, 3, 4, 2, 2, 1),
        (2, 1, 3, 4, 2, 1, 1),
        (3, 2, 4, 5, 3, 2, 1),
    ]
    assert chain[-1].mark == 7


def test_little_traversals_share_one_capped_walk(monkeypatch):
    mw = MarkedWord((2, 1, 3, 4, 3, 2, 1), 5)  # three steps forward, as above
    end = little_move(mw)
    for move in (little_move, little_move_chain, little_move_backward):
        assert list(inspect.signature(move).parameters) == ["mw"]
    monkeypatch.setattr(tableaux, "_MAX_LITTLE_STEPS", 1)
    for move, start in ((little_move, mw), (little_move_chain, mw), (little_move_backward, end)):
        with pytest.raises(AssertionError, match="did not terminate"):
            move(start)


def test_little_step_shifts_at_one():
    out = little_step(MarkedWord((1, 2, 1), 1))
    assert out.word == (1, 3, 2) or out.word == (2, 3, 2)


def test_marked_word_validation():
    with pytest.raises(ValueError):
        MarkedWord((1, 2), 3)
    with pytest.raises(ValueError):
        MarkedWord((1, 2, 2, 1), 1)  # deleting still non-reduced


def test_little_move_preserves_deleted_word_length():
    for mw in marked_reduced_words(4):
        out = little_move(mw)
        assert len(out.word) == len(mw.word)
        assert is_reduced(out.word)


def test_little_move_backward_is_a_section():
    for mw in marked_reduced_words(4):
        y = little_move(mw)
        assert little_move(little_move_backward(y)) == y


def test_transition_sides_example():
    left, right, extra = transition_sides(Permutation([4, 3, 1, 5, 2]), 1)
    assert [u.window for u in left] == [(5, 3, 1, 4, 2)]
    assert extra is not None
    assert extra.window == (5, 1, 4, 2, 6, 3)


def test_transition_sides_rejects_bad_position():
    with pytest.raises(ValueError):
        transition_sides(Permutation([2, 1, 3]), 4)


def test_transition_lengths():
    for w in symmetric_group(4):
        for r in range(1, 5):
            left, right, extra = transition_sides(w, r)
            for u in left + right + ([extra] if extra else []):
                assert u.length() == w.length() + 1


def _transition_sides_by_length(w, r):
    """The definition: keep each transposition that raises the length by one."""
    ell = w.length()
    left = [u for s in range(r + 1, w.n + 2) if (u := w.transposition_right(r, s)).length() == ell + 1]
    right = [v for s in range(1, r) if (v := w.transposition_right(s, r)).length() == ell + 1]
    shifted = w.one_times().transposition_right(1, r + 1)
    return left, right, shifted if shifted.length() == ell + 1 else None


def test_transition_sides_scan_matches_the_length_definition_on_s6():
    def windows(sides):
        left, right, extra = sides
        return [u.window for u in left], [v.window for v in right], extra and extra.window

    for w in symmetric_group(6):
        for r in range(1, 7):
            assert windows(transition_sides(w, r)) == windows(_transition_sides_by_length(w, r)), (w, r)
