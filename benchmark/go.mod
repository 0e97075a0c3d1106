module sensjoin/benchmark

go 1.22

require sensjoin v0.0.0

replace sensjoin => ../
