"""Bit-parity references: the one-at-a-time paths the batched programs replaced.

Each module mirrors the ``repro`` module it checks (``channel``, ``runner``,
``traffic``).  Nothing in ``src/`` imports them; mypy checks them with the
library.
"""
