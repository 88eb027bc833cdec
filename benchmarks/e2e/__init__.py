"""End-to-end benchmark of the reproduction: four sweep workloads,
wall-clock metrics, and an outside-in layer table (see README.md)."""
