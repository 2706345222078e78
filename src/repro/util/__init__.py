"""Shared utilities: units, deterministic RNG helpers, tables, statistics."""
