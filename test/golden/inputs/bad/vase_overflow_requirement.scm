(system s (chain (amplifier (gain 40) (bandwidth 20k))) (require (total_gain 1e400)))
