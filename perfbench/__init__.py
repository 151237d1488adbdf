"""End-to-end benchmark of the ``repro.Session`` lifecycle (see run.py)."""
