module mapa/bench

go 1.24

require mapa v0.0.0

replace mapa => ../
