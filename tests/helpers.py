"""Shared builders for the test suite."""

from totsim.errors import GenerationError
from totsim.lexicon import COMPONENTS, WordNode, WordSpec
from totsim.network import train
from totsim.patterns import BipolarPattern, SlotMap, hamming, random_pattern


def word_spec(word_id, text):
    p = BipolarPattern.from_text(text)
    return WordSpec(id=word_id, patterns={c: p for c in COMPONENTS})


def explicit_word(word_id, pattern, slots=None):
    """A single trained node, same pattern on all three components."""
    return WordNode(
        id=word_id,
        components={c: train([pattern]) for c in COMPONENTS},
        truth={c: pattern for c in COMPONENTS},
        metamemory_ref={c: pattern for c in COMPONENTS},
        slot_map=SlotMap(len(pattern), slots or {}),
    )


def reference_select(lex, semantic_input, bonuses):
    """Stage-one selection as a plain per-node loop, the rule that
    `Lexicon.select_node` vectorizes: each node scores
    min(1, max(0, overlap / N) + bonus); the highest score wins, ties go to
    the lexicographically smallest id, and a best score below the threshold
    selects nothing."""
    n = len(semantic_input)
    x = semantic_input.units.tolist()
    best_node, best_score = None, -1.0
    for node in lex.nodes:
        ov = sum(a * b for a, b in zip(x, node.truth["semantic"].units.tolist()))
        score = min(1.0, max(0.0, ov / n) + bonuses.get(node.id, 0.0))
        if best_node is None or score > best_score or (
            score == best_score and node.id < best_node.id
        ):
            best_node, best_score = node, score
    if best_score < lex.selection_threshold:
        return None
    return best_node, best_score


def reference_generated_patterns(gen, component, rng, budget=1000):
    """Random word patterns as a plain per-pair loop, the rule that
    `lexicon._generated_patterns` vectorizes: draw candidates in turn and
    keep one when its Hamming distance to every kept pattern is at least
    `min_pairwise_distance`; give up after `budget` draws for one word."""
    n = gen.lengths[component]
    kept = []
    for i in range(gen.count):
        for _ in range(budget):
            candidate = random_pattern(n, rng)
            if all(hamming(candidate, prev) >= gen.min_pairwise_distance for prev in kept):
                kept.append(candidate)
                break
        else:
            raise GenerationError(f"could not place word {i}")
    return kept
