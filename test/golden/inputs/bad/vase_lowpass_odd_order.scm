(system s (chain (lowpass (order 3) (fc 1k))))
