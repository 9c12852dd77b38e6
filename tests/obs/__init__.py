"""Observability-plane tests: metrics, slowlog, INFO, and the fleet schedules."""
