"""Group message records shared by the ordering protocols."""

from __future__ import annotations

from typing import Any, Dict, Optional


class GroupMessage:
    """A message broadcast within a group.

    Ordering metadata is filled in by the protocol in use: ``seq`` is the
    per-sender FIFO number, ``vector`` the causal timestamp and
    ``global_seq`` the total-order slot assigned by the sequencer.
    """

    __slots__ = ("sender", "payload", "size", "sent_at",
                 "seq", "vector", "global_seq", "view_id")

    def __init__(self, sender: str, payload: Any, size: int = 0,
                 sent_at: float = 0.0, seq: Optional[int] = None,
                 vector: Optional[Dict[str, int]] = None,
                 global_seq: Optional[int] = None,
                 view_id: int = 0) -> None:
        self.sender = sender
        self.payload = payload
        self.size = size
        self.sent_at = sent_at
        self.seq = seq
        self.vector = vector
        self.global_seq = global_seq
        self.view_id = view_id

    def __repr__(self) -> str:
        return "<GroupMessage from {} seq={} gseq={}>".format(
            self.sender, self.seq, self.global_seq)
