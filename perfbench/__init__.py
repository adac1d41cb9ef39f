"""Measured end-to-end and per-layer benchmark of the FIXAR reproduction.

Run ``python -m perfbench --list`` from the repository root, or see
``perfbench/README.md``.  Everything here measures *host wall-clock of this
Python system*; modelled (oracle-priced) values are carried apart, in a
``modelled`` block, and are only ever compared for exact equality.
"""
