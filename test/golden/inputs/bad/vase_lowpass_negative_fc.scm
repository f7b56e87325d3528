(system s (chain (lowpass (order 4) (fc -1k))))
