"""One module per workload: ``setup``, ``items``, ``run``, ``check`` and ``show``."""
