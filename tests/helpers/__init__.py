"""Shared test substrate (fault injection, crash hooks, reference parser)."""
