"""The end-to-end + per-layer benchmark harness (see ../README.md)."""
