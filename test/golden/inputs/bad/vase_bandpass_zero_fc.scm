(system s (chain (bandpass (fc 0))))
