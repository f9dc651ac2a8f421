"""Lock granularity for structured documents (§4.2.1).

The paper: *"it is not clear in joint authoring applications whether locks
should be applied at the granularity of sections, paragraphs, sentences or
even words."*  This module models exactly that hierarchy: a
:class:`StructuredDocument` with a fixed shape (sections → paragraphs →
sentences → words) maps any word-span edit onto the set of lock units it
covers at each granularity, so experiment E2 can sweep granularities over
one editing workload and measure the conflict-wait vs. lock-overhead
trade-off.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConcurrencyError

GRANULARITIES = ("document", "section", "paragraph", "sentence", "word")


class StructuredDocument:
    """A document with a regular section/paragraph/sentence/word shape."""

    def __init__(self, sections: int = 4, paragraphs_per_section: int = 5,
                 sentences_per_paragraph: int = 4,
                 words_per_sentence: int = 10) -> None:
        for value in (sections, paragraphs_per_section,
                      sentences_per_paragraph, words_per_sentence):
            if value < 1:
                raise ConcurrencyError("document shape values must be >= 1")
        self.sections = sections
        self.paragraphs_per_section = paragraphs_per_section
        self.sentences_per_paragraph = sentences_per_paragraph
        self.words_per_sentence = words_per_sentence

    @property
    def words_per_paragraph(self) -> int:
        return self.sentences_per_paragraph * self.words_per_sentence

    @property
    def words_per_section(self) -> int:
        return self.paragraphs_per_section * self.words_per_paragraph

    @property
    def total_words(self) -> int:
        return self.sections * self.words_per_section

    def unit_count(self, granularity: str) -> int:
        """How many lockable units exist at ``granularity``."""
        self._check(granularity)
        if granularity == "document":
            return 1
        if granularity == "section":
            return self.sections
        if granularity == "paragraph":
            return self.sections * self.paragraphs_per_section
        if granularity == "sentence":
            return (self.sections * self.paragraphs_per_section
                    * self.sentences_per_paragraph)
        return self.total_words

    def unit_size_words(self, granularity: str) -> int:
        """How many words one unit at ``granularity`` spans."""
        return self.total_words // self.unit_count(granularity)

    def units_for_span(self, granularity: str, start_word: int,
                       length: int) -> List[str]:
        """All lock units an edit of ``length`` words at ``start_word``
        must hold at ``granularity`` — the lock-overhead metric."""
        if length < 1:
            raise ConcurrencyError("span length must be >= 1")
        end_word = start_word + length - 1
        if end_word >= self.total_words:
            raise ConcurrencyError("span extends past the document")
        size = self.unit_size_words(granularity)
        first = start_word // size
        last = end_word // size
        return ["{}:{}".format(granularity, unit)
                for unit in range(first, last + 1)]

    @staticmethod
    def _check(granularity: str) -> None:
        if granularity not in GRANULARITIES:
            raise ConcurrencyError(
                "unknown granularity: {}".format(granularity))
