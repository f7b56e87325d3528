(system s (chain (dac (bits 13) (settling 1u))))
