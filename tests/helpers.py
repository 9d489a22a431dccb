"""Shared builders for the test suite."""

from totsim.lexicon import COMPONENTS, WordNode, WordSpec
from totsim.network import train
from totsim.patterns import BipolarPattern, SlotMap


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
