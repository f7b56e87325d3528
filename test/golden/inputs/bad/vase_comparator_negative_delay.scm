(system s (chain (comparator (delay -1n))))
